"""Regression tests for the >62-bit packed-key fallback paths.

``Grid._build_index`` and ``CellIndex`` (behind ``build_cell_adjacency``
and ``CoreModel.classify``) pack integer cell coordinates into a single
int64 key when the per-dimension spans fit in 62 bits combined, and
fall back to row-wise handling otherwise.  These tests pin the fallback
paths to the packed paths' behavior using coordinate spans wide enough
(two clusters ~2^33 cells apart per dimension in 2-D) that packing is
impossible.
"""

import numpy as np
import pytest

from repro.core.classify import CoreModel
from repro.core.grid import Grid, _pack_columns, cell_side_length
from repro.core.neighbors import NeighborStencil
from repro.core.reference import brute_force_detect
from repro.core.vectorized import VectorizedEngine, build_cell_adjacency

EPS = 1.0
SIDE = cell_side_length(EPS, 2)

#: Inter-cluster shift in cells per dimension: 2 x 34 span bits > 62,
#: so _pack_columns must refuse and the fallbacks must engage.
SHIFT_CELLS = 2**33


def _two_far_clusters(n_each: int = 60, seed: int = 0):
    """Two identical clustered blobs separated by SHIFT_CELLS cells in
    each dimension — far beyond eps, so they cannot interact."""
    rng = np.random.default_rng(seed)
    local = np.vstack(
        [
            rng.normal(0.0, 0.3, size=(n_each - 10, 2)),
            rng.uniform(-4.0, 4.0, size=(10, 2)),
        ]
    )
    far = local + SHIFT_CELLS * SIDE
    return local, np.vstack([local, far])


class TestPackColumns:
    def test_wide_span_refused(self):
        coords = np.array([[0, 0], [SHIFT_CELLS, SHIFT_CELLS]], dtype=np.int64)
        assert _pack_columns(coords) is None

    def test_narrow_span_packed(self):
        coords = np.array([[0, 0], [5, -3]], dtype=np.int64)
        assert _pack_columns(coords) is not None


class TestGridFallback:
    def test_grid_groups_identically_to_packed(self):
        local, combined = _two_far_clusters()
        assert _pack_columns(
            np.floor(combined / SIDE).astype(np.int64)
        ) is None
        wide = Grid(combined, EPS)
        narrow = Grid(local, EPS)
        n_local = local.shape[0]
        # The combined grid must contain each cluster's cells with the
        # same populations, and group the same points together.
        assert wide.n_cells == 2 * narrow.n_cells
        for i in range(narrow.n_cells):
            # Locate by coordinates instead of relying on cell order.
            matches = np.flatnonzero((wide.cells == narrow.cells[i]).all(1))
            assert matches.shape[0] == 1
            members_wide = np.sort(wide.cell_members(matches[0]))
            members_narrow = np.sort(narrow.cell_members(i))
            assert np.array_equal(members_wide, members_narrow)

    def test_per_point_cell_assignment_consistent(self):
        _, combined = _two_far_clusters()
        grid = Grid(combined, EPS)
        assert np.array_equal(
            grid.cells[grid.point_cell], grid.coords
        )
        assert int(grid.counts.sum()) == combined.shape[0]


class TestAdjacencyFallback:
    def test_fallback_matches_blockwise_packed(self):
        local, combined = _two_far_clusters()
        stencil = NeighborStencil(2)
        wide = Grid(combined, EPS)
        assert _pack_columns(wide.cells) is None

        targets, starts = build_cell_adjacency(wide.cells, stencil)
        # Packed reference: each cluster's cells shifted into a narrow
        # range give the same neighbor structure (adjacency is
        # translation invariant, and the clusters cannot interact).
        near_mask = (np.abs(wide.cells) < SHIFT_CELLS // 2).all(axis=1)
        for mask, shift in (
            (near_mask, 0),
            (~near_mask, SHIFT_CELLS),
        ):
            idx = np.flatnonzero(mask)
            shifted = wide.cells[idx] - shift
            assert _pack_columns(shifted) is not None
            ref_targets, ref_starts = build_cell_adjacency(shifted, stencil)
            for row, i in enumerate(idx):
                got = targets[starts[i] : starts[i + 1]]
                expected = idx[
                    ref_targets[ref_starts[row] : ref_starts[row + 1]]
                ]
                assert set(got.tolist()) == set(expected.tolist())
                # No cross-cluster edges.
                assert mask[got].all()

    def test_detection_parity_across_fallback(self):
        # End to end: the full pipeline over the wide dataset must agree
        # with brute force and with per-cluster detection.
        local, combined = _two_far_clusters()
        n_local = local.shape[0]
        engine = VectorizedEngine()
        wide = engine.detect(combined, EPS, 8)
        narrow = engine.detect(local, EPS, 8)
        expected = brute_force_detect(combined, EPS, 8)
        assert np.array_equal(wide.outlier_mask, expected.outlier_mask)
        assert np.array_equal(wide.core_mask, expected.core_mask)
        # The far copy is geometrically identical, so each half matches
        # the single-cluster run.
        assert np.array_equal(wide.outlier_mask[:n_local], narrow.outlier_mask)
        assert np.array_equal(
            wide.outlier_mask[n_local:], narrow.outlier_mask
        )


class TestClassifyFallback:
    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    def test_classify_matches_brute_force(self, kernel):
        _, combined = _two_far_clusters()
        expected = brute_force_detect(combined, EPS, 8)
        model = CoreModel.from_fit(combined, expected, EPS, 8)
        assert not model._index.packed
        np.testing.assert_array_equal(
            model.classify(combined, kernel=kernel), expected.labels()
        )
        # Out of sample: jittered copies near both clusters, each judged
        # against the core points by Definition 3.
        rng = np.random.default_rng(1)
        queries = combined + rng.normal(0.0, 0.5, size=combined.shape)
        core = combined[expected.core_mask]
        sq = ((queries[:, None, :] - core[None, :, :]) ** 2).sum(axis=2)
        outliers = (sq > EPS * EPS).all(axis=1).astype(np.int64)
        assert 0 < outliers.sum() < outliers.shape[0]
        np.testing.assert_array_equal(
            model.classify(queries, kernel=kernel), outliers
        )
