"""Unit tests for the vectorized engine's flat-batch helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.core.kernels.numpy_kernel import (
    segmented_pair_counts as _segmented_pair_counts,
)
from repro.core.neighbors import NeighborStencil
from repro.core.vectorized import (
    _CellAdjacency,
    _flat_ranges,
    _plan_cell_jobs,
    _segment_sums,
)


class TestFlatRanges:
    def test_basic(self):
        out = _flat_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty_runs_skipped(self):
        out = _flat_ranges(np.array([5, 7, 9]), np.array([2, 0, 1]))
        assert out.tolist() == [5, 6, 9]

    def test_all_empty(self):
        assert _flat_ranges(np.array([1, 2]), np.array([0, 0])).size == 0

    def test_no_runs(self):
        assert _flat_ranges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        ).size == 0

    @settings(max_examples=50, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=10),
            ),
            max_size=20,
        )
    )
    def test_matches_python_loop(self, runs):
        starts = np.array([s for s, _ in runs], dtype=np.int64)
        lengths = np.array([l for _, l in runs], dtype=np.int64)
        expected = [x for s, l in runs for x in range(s, s + l)]
        assert _flat_ranges(starts, lengths).tolist() == expected


class TestSegmentSums:
    def test_basic(self):
        values = np.array([1, 2, 3, 4, 5])
        assert _segment_sums(values, np.array([2, 3])).tolist() == [3, 12]

    def test_empty_segments_are_zero(self):
        values = np.array([1, 2, 3])
        out = _segment_sums(values, np.array([0, 2, 0, 1]))
        assert out.tolist() == [0, 3, 0, 3]

    @settings(max_examples=50, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=6), max_size=15)
    )
    def test_matches_python_loop(self, lengths):
        rng = np.random.default_rng(0)
        total = sum(lengths)
        values = rng.integers(-5, 5, size=total)
        out = _segment_sums(values, np.array(lengths, dtype=np.int64))
        cursor = 0
        for index, length in enumerate(lengths):
            assert out[index] == values[cursor : cursor + length].sum()
            cursor += length


class TestGatherAndCount:
    def test_counts_match_per_cell_reference(self, clustered_2d):
        eps, min_pts = 0.8, 8
        grid = Grid(clustered_2d, eps)
        stencil = NeighborStencil(2)
        adjacency = _CellAdjacency(grid, stencil)
        work = np.arange(grid.n_cells)
        members, m_sizes, cands, c_sizes, _, _ = _plan_cell_jobs(
            grid, work, adjacency.rows(work), None, None, bounds=None,
            eps_sq=0.0, counters={},
        )
        counters = {"distance_computations": 0}
        counts = _segmented_pair_counts(
            clustered_2d, members, m_sizes, cands, c_sizes, eps * eps,
            counters,
        )
        # Reference: per-cell loop with einsum.
        cursor = 0
        for cell_index in work:
            cell_members = grid.cell_members(cell_index)
            neighbor_cells = adjacency.neighbors(cell_index)
            candidates = np.concatenate(
                [grid.cell_members(nc) for nc in neighbor_cells]
            )
            diffs = (
                clustered_2d[cell_members][:, None, :]
                - clustered_2d[candidates][None, :, :]
            )
            sq = np.einsum("ijk,ijk->ij", diffs, diffs)
            expected = (sq <= eps * eps).sum(axis=1)
            got = counts[cursor : cursor + cell_members.size]
            member_slice = members[cursor : cursor + cell_members.size]
            assert np.array_equal(member_slice, cell_members)
            assert np.array_equal(got, expected)
            cursor += cell_members.size

    def test_tiny_pair_budget_still_exact(self, clustered_2d):
        eps = 0.8
        grid = Grid(clustered_2d, eps)
        stencil = NeighborStencil(2)
        adjacency = _CellAdjacency(grid, stencil)
        work = np.arange(grid.n_cells)
        members, m_sizes, cands, c_sizes, _, _ = _plan_cell_jobs(
            grid, work, adjacency.rows(work), None, None, bounds=None,
            eps_sq=0.0, counters={},
        )
        counters = {"distance_computations": 0}
        small = _segmented_pair_counts(
            clustered_2d, members, m_sizes, cands, c_sizes, eps * eps,
            counters, pair_budget=7,
        )
        counters2 = {"distance_computations": 0}
        large = _segmented_pair_counts(
            clustered_2d, members, m_sizes, cands, c_sizes, eps * eps,
            counters2, pair_budget=10**9,
        )
        assert np.array_equal(small, large)
        assert (
            counters["distance_computations"]
            == counters2["distance_computations"]
        )

    def test_candidate_masks_applied(self, clustered_2d):
        from repro.core.vectorized import detect

        eps, min_pts = 0.8, 8
        result = detect(clustered_2d, eps, min_pts)
        grid = Grid(clustered_2d, eps)
        stencil = NeighborStencil(2)
        adjacency = _CellAdjacency(grid, stencil)
        cell_is_core = np.zeros(grid.n_cells, dtype=bool)
        cell_is_core[np.unique(grid.point_cell[result.core_mask])] = True
        work = np.flatnonzero(~cell_is_core)
        members, m_sizes, cands, c_sizes, _, _ = _plan_cell_jobs(
            grid,
            work,
            adjacency.rows(work),
            candidate_cell_mask=cell_is_core,
            candidate_point_mask=result.core_mask,
            bounds=None,
            eps_sq=eps * eps,
            counters={},
        )
        # Every surviving candidate is a core point.
        assert result.core_mask[cands].all()
        assert m_sizes.sum() == members.size
        assert c_sizes.sum() == cands.size

    def test_empty_work_set(self, clustered_2d):
        grid = Grid(clustered_2d, 0.8)
        stencil = NeighborStencil(2)
        adjacency = _CellAdjacency(grid, stencil)
        work = np.empty(0, dtype=np.int64)
        members, m_sizes, cands, c_sizes, _, _ = _plan_cell_jobs(
            grid, work, adjacency.rows(work), None, None, bounds=None,
            eps_sq=0.0, counters={},
        )
        assert members.size == 0 and cands.size == 0
        counters = {"distance_computations": 0}
        counts = _segmented_pair_counts(
            clustered_2d, members, m_sizes, cands, c_sizes, 1.0, counters
        )
        assert counts.size == 0
