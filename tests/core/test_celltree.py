"""Tests for the grid tree (repro.core.celltree).

The tree is a pure pruning layer over non-empty cells: its adjacency
must equal the stencil planner's as a *set* per source cell (row order
may differ; neighbor counts are sums so labels are invariant), and on
sparse high-dimensional grids it must examine far fewer cell pairs.
"""

import numpy as np
import pytest

from repro import DBSCOUT
from repro.core.celltree import CellTree, build_tree_adjacency
from repro.core.neighbors import NeighborStencil
from repro.core.vectorized import (
    TREE_PLANNER_MIN_DIMS,
    VectorizedEngine,
    build_cell_adjacency,
)
from repro.exceptions import ParameterError


def _random_cells(rng, n_cells, n_dims, span):
    cells = rng.integers(-span, span, size=(n_cells, n_dims))
    return np.unique(cells, axis=0)


def _rows(targets, starts, i):
    return sorted(targets[starts[i] : starts[i + 1]].tolist())


class TestPlannerValidation:
    @pytest.mark.parametrize("bad", ["kd", 1, True])
    def test_rejects_unknown(self, bad):
        # The planner is not a public option; "auto" picks it.
        with pytest.raises(ParameterError, match="cell_planner"):
            DBSCOUT(eps=1.0, min_pts=5, cell_planner=bad)


class TestAdjacencySetEquality:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4, 6])
    def test_matches_stencil(self, seed, n_dims):
        rng = np.random.default_rng(seed)
        cells = _random_cells(rng, 80, n_dims, span=4)
        stencil = NeighborStencil(n_dims)
        s_targets, s_starts = build_cell_adjacency(cells, stencil)
        t_targets, t_starts = build_tree_adjacency(cells)
        np.testing.assert_array_equal(s_starts, t_starts)
        for i in range(cells.shape[0]):
            assert _rows(s_targets, s_starts, i) == _rows(
                t_targets, t_starts, i
            )

    def test_empty_grid(self):
        cells = np.zeros((0, 3), dtype=np.int64)
        targets, starts = build_tree_adjacency(cells)
        assert targets.size == 0
        assert starts.tolist() == [0]

    def test_single_cell_is_own_neighbor(self):
        cells = np.array([[5, -3]], dtype=np.int64)
        targets, starts = build_tree_adjacency(cells)
        assert targets.tolist() == [0]
        assert starts.tolist() == [0, 1]

    @pytest.mark.parametrize("leaf_size", [1, 2, 8, 64])
    def test_leaf_size_invariance(self, leaf_size):
        rng = np.random.default_rng(3)
        cells = _random_cells(rng, 60, 3, span=5)
        baseline_t, baseline_s = build_tree_adjacency(cells)
        targets, starts = build_tree_adjacency(cells, leaf_size=leaf_size)
        np.testing.assert_array_equal(baseline_s, starts)
        for i in range(cells.shape[0]):
            assert _rows(baseline_t, baseline_s, i) == _rows(
                targets, starts, i
            )


class TestPruningCounters:
    def test_tree_examines_fewer_pairs_in_high_dims(self):
        # Sparse 5-d grid: the stencil enumerates k_d offsets per cell
        # while the tree prunes empty subtrees by exact integer
        # min-gap arithmetic.
        rng = np.random.default_rng(11)
        cells = _random_cells(rng, 400, 5, span=12)
        stencil = NeighborStencil(5)
        stencil_pairs = cells.shape[0] * stencil.k_d
        counters = {}
        build_tree_adjacency(cells, counters)
        tree_pairs = counters["planner.cell_pairs_examined"]
        assert counters["tree.subtrees_pruned"] > 0
        assert counters["tree.nodes"] > 1
        assert tree_pairs < stencil_pairs / 4

    def test_engine_counters_and_context(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0.0, 30.0, size=(500, 4))
        results = {}
        for planner in ("tree", "stencil"):
            engine = VectorizedEngine()
            engine._cell_planner = planner
            results[planner] = engine.detect(points, 0.7, 3)
        tree, stencil = results["tree"], results["stencil"]
        assert tree.record.context["cell_planner"] == "tree"
        assert stencil.record.context["cell_planner"] == "stencil"
        assert (
            tree.stats["planner.cell_pairs_examined"]
            < stencil.stats["planner.cell_pairs_examined"]
        )
        np.testing.assert_array_equal(tree.core_mask, stencil.core_mask)
        np.testing.assert_array_equal(
            tree.outlier_mask, stencil.outlier_mask
        )

    def test_auto_planner_switches_on_dimensionality(self):
        low = VectorizedEngine()._resolve_planner(TREE_PLANNER_MIN_DIMS - 1)
        high = VectorizedEngine()._resolve_planner(TREE_PLANNER_MIN_DIMS)
        assert low == "stencil"
        assert high == "tree"


class TestCellTreeStructure:
    def test_query_subset(self):
        # Query a subset of cells against the full tree: each row must
        # equal the stencil row for that source cell.
        rng = np.random.default_rng(8)
        cells = _random_cells(rng, 50, 3, span=4)
        stencil = NeighborStencil(3)
        s_targets, s_starts = build_cell_adjacency(cells, stencil)
        tree = CellTree(cells)
        pick = np.array([0, 7, 31], dtype=np.int64)
        targets, starts = tree.query_adjacency(cells[pick])
        for row, src in enumerate(pick):
            got = sorted(targets[starts[row] : starts[row + 1]].tolist())
            assert got == _rows(s_targets, s_starts, int(src))
