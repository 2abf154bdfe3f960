"""Tests for the vectorized DBSCOUT engine."""

import math

import numpy as np
import pytest

from repro.core.reference import brute_force_detect
from repro.core.vectorized import VectorizedEngine, detect
from repro.exceptions import DataValidationError, ParameterError


@pytest.fixture
def engine() -> VectorizedEngine:
    return VectorizedEngine()


class TestAgainstBruteForce:
    @pytest.mark.parametrize("eps,min_pts", [(0.5, 5), (1.0, 10), (2.0, 3)])
    def test_2d(self, engine, clustered_2d, eps, min_pts):
        expected = brute_force_detect(clustered_2d, eps, min_pts)
        actual = engine.detect(clustered_2d, eps, min_pts)
        assert np.array_equal(actual.outlier_mask, expected.outlier_mask)
        assert np.array_equal(actual.core_mask, expected.core_mask)

    @pytest.mark.parametrize("eps,min_pts", [(0.8, 5), (1.5, 20)])
    def test_3d(self, engine, clustered_3d, eps, min_pts):
        expected = brute_force_detect(clustered_3d, eps, min_pts)
        actual = engine.detect(clustered_3d, eps, min_pts)
        assert np.array_equal(actual.outlier_mask, expected.outlier_mask)
        assert np.array_equal(actual.core_mask, expected.core_mask)

    def test_1d(self, engine, rng):
        points = np.sort(rng.normal(size=100))[:, None]
        expected = brute_force_detect(points, 0.2, 4)
        actual = engine.detect(points, 0.2, 4)
        assert np.array_equal(actual.outlier_mask, expected.outlier_mask)

    def test_4d(self, engine, rng):
        points = np.vstack(
            [rng.normal(0, 0.5, (150, 4)), rng.uniform(-6, 6, (20, 4))]
        )
        expected = brute_force_detect(points, 1.2, 8)
        actual = engine.detect(points, 1.2, 8)
        assert np.array_equal(actual.outlier_mask, expected.outlier_mask)
        assert np.array_equal(actual.core_mask, expected.core_mask)


class TestLemmas:
    def test_lemma1_dense_cell_points_are_core(self, engine, clustered_2d):
        from repro.core.grid import Grid

        eps, min_pts = 0.8, 10
        result = engine.detect(clustered_2d, eps, min_pts)
        grid = Grid(clustered_2d, eps)
        for cell_index in np.flatnonzero(grid.counts >= min_pts):
            members = grid.cell_members(cell_index)
            assert result.core_mask[members].all()

    def test_lemma2_core_cell_points_not_outliers(self, engine, clustered_2d):
        from repro.core.grid import Grid

        eps, min_pts = 0.8, 10
        result = engine.detect(clustered_2d, eps, min_pts)
        grid = Grid(clustered_2d, eps)
        for cell_index in range(grid.n_cells):
            members = grid.cell_members(cell_index)
            if result.core_mask[members].any():
                assert not result.outlier_mask[members].any()

    def test_core_points_are_never_outliers(self, engine, clustered_2d):
        result = engine.detect(clustered_2d, 0.8, 10)
        assert not (result.core_mask & result.outlier_mask).any()


class TestEdgeCases:
    def test_empty_input(self, engine):
        result = engine.detect(np.zeros((0, 2)), 1.0, 5)
        assert result.n_points == 0
        assert result.outlier_mask.shape == (0,)

    def test_single_point_min_pts_1(self, engine):
        result = engine.detect(np.array([[0.0, 0.0]]), 1.0, 1)
        assert result.core_mask.tolist() == [True]
        assert result.outlier_mask.tolist() == [False]

    def test_single_point_min_pts_2(self, engine):
        result = engine.detect(np.array([[0.0, 0.0]]), 1.0, 2)
        assert result.core_mask.tolist() == [False]
        assert result.outlier_mask.tolist() == [True]

    def test_min_pts_one_means_no_outliers(self, engine, clustered_2d):
        # Every point has itself in its eps-ball, so all are core.
        result = engine.detect(clustered_2d, 0.5, 1)
        assert result.core_mask.all()
        assert not result.outlier_mask.any()

    def test_all_duplicates(self, engine):
        points = np.tile([[2.0, 3.0]], (10, 1))
        result = engine.detect(points, 0.5, 10)
        assert result.core_mask.all()
        assert not result.outlier_mask.any()

    def test_two_far_points(self, engine):
        points = np.array([[0.0, 0.0], [100.0, 100.0]])
        result = engine.detect(points, 1.0, 2)
        assert result.outlier_mask.all()

    def test_pair_exactly_at_eps(self, engine):
        # Definition 2 uses <= eps: two points at exactly eps with
        # min_pts=2 are both core, hence no outliers.
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        result = engine.detect(points, 1.0, 2)
        expected = brute_force_detect(points, 1.0, 2)
        assert np.array_equal(result.core_mask, expected.core_mask)
        assert result.core_mask.all()
        assert not result.outlier_mask.any()

    def test_pair_just_beyond_eps(self, engine):
        points = np.array([[0.0, 0.0], [1.0 + 1e-9, 0.0]])
        result = engine.detect(points, 1.0, 2)
        assert result.outlier_mask.all()

    def test_cross_cell_boundary_pair(self, engine):
        # Points in different cells but within eps must see each other.
        eps = 1.0
        side = eps / math.sqrt(2.0)
        points = np.array([[side - 1e-6, 0.1], [side + 1e-6, 0.1]])
        result = engine.detect(points, eps, 2)
        assert result.core_mask.all()

    def test_invalid_parameters(self, engine, clustered_2d):
        with pytest.raises(ParameterError):
            engine.detect(clustered_2d, -1.0, 5)
        with pytest.raises(ParameterError):
            engine.detect(clustered_2d, 1.0, 0)
        with pytest.raises(ParameterError):
            engine.detect(clustered_2d, 1.0, 2.5)

    def test_invalid_points(self, engine):
        with pytest.raises(DataValidationError):
            engine.detect(np.array([[np.nan, 0.0]]), 1.0, 5)


class TestResultMetadata:
    def test_timings_present(self, clustered_2d):
        result = detect(clustered_2d, 0.8, 10)
        assert result.timings is not None
        assert set(result.timings.phases) == {
            "grid",
            "dense_cell_map",
            "core_points",
            "core_cell_map",
            "outliers",
        }
        assert result.timings.total > 0

    def test_adjacency_nests_in_dense_cell_map(self, clustered_2d):
        spans = detect(clustered_2d, 0.8, 10).record.spans
        (parent,) = [s for s in spans if s["name"] == "dense_cell_map"]
        (child,) = [s for s in spans if s["name"] == "adjacency"]
        assert child["parent_id"] == parent["span_id"]
        assert child["depth"] == parent["depth"] + 1 == 1
        assert child["duration_s"] <= parent["duration_s"]

    @pytest.mark.parametrize("box_tests", [None, True, False])
    def test_bounds_span_iff_a_round_box_tested(self, clustered_2d, box_tests):
        engine = VectorizedEngine()
        engine._box_tests = box_tests
        result = engine.detect(clustered_2d, 0.8, 10)
        tested = [
            name
            for name in ("core_points", "outliers")
            if result.stats[f"box_tests.{name}"]
        ]
        spans = result.record.spans
        bounds = [s for s in spans if s["name"] == "bounds"]
        assert len(bounds) == (1 if tested else 0)
        if box_tests is not None:
            assert bool(tested) is box_tests
        if tested:
            # Built inside the first round that box-tests.
            (parent,) = [s for s in spans if s["name"] == tested[0]]
            assert bounds[0]["parent_id"] == parent["span_id"]
            assert bounds[0]["depth"] == 1

    def test_stats_present(self, clustered_2d):
        result = detect(clustered_2d, 0.8, 10)
        assert result.stats["engine"] == "vectorized"
        assert result.stats["k_d"] == 25  # boundary-inclusive stencil
        assert result.stats["n_cells"] > 0
        assert result.stats["n_core_cells"] <= result.stats["n_cells"]

    def test_large_coordinates_fallback_path(self):
        # Huge spread forces the dict-based adjacency fallback: the
        # cell span (~2**47 cells per dim) overflows the 62-bit packer
        # while staying inside the exact grid domain (< 2**52 cells).
        rng = np.random.default_rng(3)
        points = np.vstack(
            [
                rng.normal(0.0, 1e-4, (50, 2)),
                rng.normal(1e11, 1e-4, (50, 2)),
                np.array([[5e10, 5e10]]),
            ]
        )
        result = detect(points, 1e-3, 10)
        expected = brute_force_detect(points, 1e-3, 10)
        assert np.array_equal(result.outlier_mask, expected.outlier_mask)

    def test_out_of_domain_coordinates_rejected(self):
        # Beyond 2**52 cells float division cannot resolve cell
        # coordinates; every path rejects uniformly.
        points = np.array([[1e15, 0.0], [0.0, 0.0]])
        with pytest.raises(DataValidationError):
            detect(points, 1e-3, 2)


class TestEpsMonotonicity:
    def test_larger_eps_fewer_or_equal_outliers(self, clustered_2d):
        counts = [
            detect(clustered_2d, eps, 10).n_outliers
            for eps in (0.3, 0.6, 1.2, 2.4)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_larger_min_pts_more_or_equal_outliers(self, clustered_2d):
        counts = [
            detect(clustered_2d, 0.8, min_pts).n_outliers
            for min_pts in (2, 5, 10, 20)
        ]
        assert counts == sorted(counts)
