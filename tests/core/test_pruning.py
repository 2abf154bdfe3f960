"""Tests for the vectorized engine's box tests and the rule that picks them.

Box tests (bounding-box covered/excluded classification plus
covered-cell settling) must be invisible in the results: every mask bit
identical to the untested path and to the brute-force reference, while
the stats counters show work actually being skipped.  Each round decides
from its own pair density whether to box-test; the private
``VectorizedEngine._box_tests`` hook pins that decision for these tests.
"""

import contextlib
import functools

import numpy as np
import pytest

from repro import DBSCOUT
from repro.core import vectorized
from repro.core.kernels.c_kernel import c_kernel_status
from repro.core.reference import brute_force_detect
from repro.core.vectorized import (
    BOX_TEST_MIN_PAIR_DENSITY,
    VectorizedEngine,
    _cell_bounds,
    _classify_cell_pairs,
    _masked_cell_bounds,
    _masked_cell_counts,
)
from repro.core.grid import Grid
from repro.exceptions import ParameterError

ROUNDS = ("core_points", "outliers")

#: min_pts for the clumped-grid workload below: each cell alone is NOT
#: dense (5 points), so the Lemma-1 shortcut never fires and the work
#: must be resolved by neighborhood counting — which box tests cover.
CLUMP_MIN_PTS = 15


def _engine(box_tests=None, **options) -> VectorizedEngine:
    """A vectorized engine whose rounds box-test as ``box_tests`` says."""
    engine = VectorizedEngine(**options)
    engine._box_tests = box_tests
    return engine


def _clumped_grid(seed: int = 3) -> np.ndarray:
    """Tiny 5-point clumps at the centers of an 8x8 block of adjacent
    cells (eps=1).  Per-cell bounding boxes are nearly points, so the
    axis-neighbor cell pairs are fully covered: their maximum possible
    distance is ~ the cell side (0.707) < eps."""
    rng = np.random.default_rng(seed)
    side = 1.0 / np.sqrt(2.0)  # cell side for eps=1, d=2
    clumps = []
    for i in range(8):
        for j in range(8):
            center = np.array([(i + 0.5) * side, (j + 0.5) * side])
            clumps.append(center + rng.normal(0.0, 0.005, size=(5, 2)))
    return np.vstack(clumps)


def _dense_blob(seed: int = 0) -> np.ndarray:
    """A 2-D Gaussian blob plus scatter; with eps=0.3 and min_pts=60 its
    non-dense rim cells border cells of hundreds of points."""
    rng = np.random.default_rng(seed)
    return np.vstack(
        [
            rng.normal(0.0, 1.0, size=(4000, 2)),
            rng.uniform(-6.0, 6.0, size=(200, 2)),
        ]
    )


@contextlib.contextmanager
def _logged_span(log: list, name: str):
    """Stand-in for ``RunRecorder.span`` that logs the names it opens."""
    log.append(name)
    yield


class TestParity:
    """Box tests on == box tests off == brute force, bit for bit."""

    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eps,min_pts", [(0.6, 4), (1.1, 8)])
    def test_random_parity_vs_reference(self, n_dims, eps, min_pts):
        rng = np.random.default_rng(100 + n_dims)
        points = np.vstack(
            [
                rng.normal(0.0, 0.4, size=(120, n_dims)),
                rng.normal(4.0, 0.6, size=(120, n_dims)),
                rng.uniform(-6.0, 10.0, size=(40, n_dims)),
            ]
        )
        pruned = _engine(True).detect(points, eps, min_pts)
        plain = _engine(False).detect(points, eps, min_pts)
        expected = brute_force_detect(points, eps, min_pts)
        assert np.array_equal(pruned.outlier_mask, plain.outlier_mask)
        assert np.array_equal(pruned.core_mask, plain.core_mask)
        assert np.array_equal(pruned.outlier_mask, expected.outlier_mask)
        assert np.array_equal(pruned.core_mask, expected.core_mask)

    def test_clustered_fixture_parity(self, clustered_2d):
        pruned = _engine(True).detect(clustered_2d, 0.5, 10)
        plain = _engine(False).detect(clustered_2d, 0.5, 10)
        assert np.array_equal(pruned.outlier_mask, plain.outlier_mask)
        assert np.array_equal(pruned.core_mask, plain.core_mask)

    def test_degenerate_duplicate_points(self):
        # All points identical: one cell, zero-size bounding box, the
        # self pair is covered by Lemma 1 and settling fires.
        points = np.zeros((50, 3))
        pruned = _engine(True).detect(points, 1.0, 10)
        plain = _engine(False).detect(points, 1.0, 10)
        assert np.array_equal(pruned.outlier_mask, plain.outlier_mask)
        assert pruned.n_outliers == 0
        assert pruned.n_core_points == 50


class TestCounters:
    def test_covered_pairs_skipped_on_clumped_grid(self):
        result = _engine(True).detect(_clumped_grid(), 1.0, CLUMP_MIN_PTS)
        assert result.stats["pairs_skipped_covered"] > 0
        assert result.stats["cells_settled_covered"] > 0
        assert result.stats["box_tests.core_points"] is True

    def test_clumped_grid_parity(self):
        points = _clumped_grid()
        pruned = _engine(True).detect(points, 1.0, CLUMP_MIN_PTS)
        expected = brute_force_detect(points, 1.0, CLUMP_MIN_PTS)
        assert np.array_equal(pruned.outlier_mask, expected.outlier_mask)
        assert np.array_equal(pruned.core_mask, expected.core_mask)

    def test_pruning_reduces_distance_computations(self):
        points = _clumped_grid()
        pruned = _engine(True).detect(points, 1.0, CLUMP_MIN_PTS)
        plain = _engine(False).detect(points, 1.0, CLUMP_MIN_PTS)
        assert (
            pruned.stats["distance_computations"]
            < plain.stats["distance_computations"]
        )

    def test_counters_zero_when_pruning_off(self):
        result = _engine(False).detect(_clumped_grid(), 1.0, CLUMP_MIN_PTS)
        assert result.stats["pairs_self_covered"] > 0  # Lemma 1 still
        assert result.stats["pairs_skipped_covered"] == 0
        assert result.stats["pairs_skipped_excluded"] == 0
        assert result.stats["cells_settled_covered"] == 0
        for name in ROUNDS:
            assert result.stats[f"box_tests.{name}"] is False

    def test_excluded_pairs_on_spread_data(self):
        # Two small (non-dense) clumps in diagonal-neighbor cells whose
        # occupied corners are farther than eps apart: the cells are
        # stencil neighbors, but the bounding-box minimum distance
        # proves no pair can be within eps.
        rng = np.random.default_rng(9)
        points = np.vstack(
            [
                rng.uniform(0.0, 0.05, size=(5, 2)),
                rng.uniform(1.36, 1.41, size=(5, 2)),
            ]
        )
        result = _engine(True).detect(points, 1.0, 10)
        assert result.stats["pairs_skipped_excluded"] > 0


class TestRoundRule:
    """Each round box-tests iff its pair density reaches the kernel's
    threshold; the bounds are built lazily, at most once per fit."""

    @staticmethod
    def _count_bounds_builds(monkeypatch) -> list[int]:
        calls = []

        def counting(grid):
            calls.append(grid.n_cells)
            return _cell_bounds(grid)

        monkeypatch.setattr(vectorized, "_cell_bounds", counting)
        return calls

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    def test_low_density_builds_no_bounds(self, kernel, monkeypatch):
        points = np.random.default_rng(1).uniform(0.0, 100.0, (3000, 3))
        forced = _engine(True, kernel=kernel).detect(points, 2.0, 4)
        calls = self._count_bounds_builds(monkeypatch)
        result = _engine(kernel=kernel).detect(points, 2.0, 4)
        assert calls == []
        density = result.stats["pair_density.core_points"]
        assert 0 < density < min(BOX_TEST_MIN_PAIR_DENSITY.values())
        for name in ROUNDS:
            assert result.stats[f"box_tests.{name}"] is False
        assert "bounds" not in {s["name"] for s in result.record.spans}
        assert result.stats["pairs_skipped_covered"] == 0
        assert result.stats["cells_settled_covered"] == 0
        assert np.array_equal(result.outlier_mask, forced.outlier_mask)
        assert np.array_equal(result.core_mask, forced.core_mask)

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    def test_dense_core_round_box_tests(self, kernel, monkeypatch):
        points = _dense_blob()
        calls = self._count_bounds_builds(monkeypatch)
        result = _engine(kernel=kernel).detect(points, 0.3, 60)
        density = result.stats["pair_density.core_points"]
        assert density >= max(BOX_TEST_MIN_PAIR_DENSITY.values())
        assert result.stats["box_tests.core_points"] is True
        assert result.stats["pairs_skipped_covered"] > 0
        assert len(calls) == 1  # shared by every round that box-tests
        expected = brute_force_detect(points, 0.3, 60)
        assert np.array_equal(result.outlier_mask, expected.outlier_mask)
        assert np.array_equal(result.core_mask, expected.core_mask)

    @pytest.mark.skipif(
        not c_kernel_status()["available"], reason="C kernel unavailable"
    )
    def test_threshold_follows_the_kernel(self):
        # Every non-self clump pair hides 5 x 5 point pairs.
        points = _clumped_grid()
        low = BOX_TEST_MIN_PAIR_DENSITY["numpy"]
        high = BOX_TEST_MIN_PAIR_DENSITY["c"]
        results = {
            kernel: _engine(kernel=kernel).detect(points, 1.0, CLUMP_MIN_PTS)
            for kernel in ("numpy", "c")
        }
        for result in results.values():
            assert low <= result.stats["pair_density.core_points"] < high
        assert results["numpy"].stats["box_tests.core_points"] is True
        assert results["c"].stats["box_tests.core_points"] is False
        assert np.array_equal(
            results["numpy"].outlier_mask, results["c"].outlier_mask
        )
        assert np.array_equal(
            results["numpy"].core_mask, results["c"].core_mask
        )

    def test_unknown_kernel_name_uses_numpy_threshold(self):
        grid = Grid(_clumped_grid(), 1.0)
        spans = []
        box_tests = vectorized._BoxTests(
            grid, "timing-wrapper", None,
            functools.partial(_logged_span, spans),
        )
        decide = box_tests.round("core_points")
        threshold = BOX_TEST_MIN_PAIR_DENSITY["numpy"]
        assert decide(threshold * 10 - 1, 10) is None
        assert decide(threshold * 10, 10) is not None
        assert decide(threshold * 10, 10) is not None
        assert spans == ["bounds"]  # built once, on the first yes

    def test_pruning_option_is_gone(self):
        with pytest.raises(ParameterError, match="pruning"):
            DBSCOUT(1.0, 5, pruning=True)
        with pytest.raises(TypeError):
            VectorizedEngine(pruning=True)


class TestClassification:
    """Unit checks of the bounding-box classification itself."""

    def test_self_pair_always_covered(self):
        rng = np.random.default_rng(5)
        grid = Grid(rng.uniform(0.0, 3.0, size=(200, 2)), eps=1.0)
        bounds = _cell_bounds(grid)
        idx = np.arange(grid.n_cells, dtype=np.int64)
        covered, excluded = _classify_cell_pairs(
            bounds, bounds, idx, idx, 1.0
        )
        assert covered.all()
        assert not excluded.any()

    def test_covered_and_excluded_disjoint(self):
        rng = np.random.default_rng(6)
        grid = Grid(rng.normal(0.0, 1.0, size=(400, 2)), eps=0.7)
        bounds = _cell_bounds(grid)
        work = np.repeat(np.arange(grid.n_cells, dtype=np.int64), grid.n_cells)
        cand = np.tile(np.arange(grid.n_cells, dtype=np.int64), grid.n_cells)
        covered, excluded = _classify_cell_pairs(
            bounds, bounds, work, cand, 0.7**2
        )
        assert not (covered & excluded).any()

    def test_classification_is_sound(self):
        # Covered pairs: every cross-cell distance <= eps.  Excluded
        # pairs: every cross-cell distance > eps.  Checked exhaustively
        # against the actual point pairs.
        rng = np.random.default_rng(7)
        eps = 1.0
        grid = Grid(rng.uniform(0.0, 2.5, size=(300, 2)), eps=eps)
        bounds = _cell_bounds(grid)
        n = grid.n_cells
        work = np.repeat(np.arange(n, dtype=np.int64), n)
        cand = np.tile(np.arange(n, dtype=np.int64), n)
        covered, excluded = _classify_cell_pairs(
            bounds, bounds, work, cand, eps * eps
        )
        for w, c, cov, exc in zip(work, cand, covered, excluded):
            a = grid.points[grid.cell_members(w)]
            b = grid.points[grid.cell_members(c)]
            d_sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            if cov:
                assert (d_sq <= eps * eps).all()
            if exc:
                assert (d_sq > eps * eps).all()

    def test_masked_bounds_cover_only_masked_points(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0.0, 3.0, size=(150, 2))
        grid = Grid(points, eps=1.0)
        mask = np.zeros(points.shape[0], dtype=bool)
        mask[::3] = True
        mask[grid.cell_members(0)] = True  # wholly masked
        mask[grid.cell_members(1)] = False  # no masked member
        bounds = _cell_bounds(grid)
        counts = _masked_cell_counts(grid, mask)
        # A subset of the cells: only these rows are boxed.
        cells = np.concatenate(([0, 1], np.arange(3, grid.n_cells, 2)))
        lo, hi = _masked_cell_bounds(grid, mask, counts, cells, bounds)
        for i in cells:
            members = grid.cell_members(i)
            masked = members[mask[members]]
            if masked.shape[0] == 0:
                assert (lo[i] > hi[i]).all()
            else:
                assert np.array_equal(lo[i], points[masked].min(axis=0))
                assert np.array_equal(hi[i], points[masked].max(axis=0))
        assert np.array_equal(lo[0], bounds[0][0])
        assert np.array_equal(hi[0], bounds[1][0])
        # Wholly masked cells alone reuse the unmasked boxes as they are.
        whole = np.flatnonzero(counts == grid.counts)
        assert whole.size
        assert _masked_cell_bounds(grid, mask, counts, whole, bounds) is bounds
