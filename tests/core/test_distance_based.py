"""Tests for the Knorr-Ng distance-based detector extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.distance_based import DistanceBasedDetector
from repro.core.reference import brute_force_core_mask
from repro.exceptions import ParameterError
from repro.qa.generators import generate_dataset


def brute_force_db_outliers(
    points: np.ndarray, radius: float, fraction: float
) -> np.ndarray:
    """Direct transcription of the DB(fraction, radius) definition."""
    n = points.shape[0]
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    within = (dists <= radius).sum(axis=1)  # self included
    threshold = int(np.floor((1.0 - fraction) * n)) + 1
    return within < threshold


class TestAgainstBruteForce:
    @pytest.mark.parametrize("fraction", [0.9, 0.95, 0.99])
    def test_clustered_data(self, clustered_2d, fraction):
        detector = DistanceBasedDetector(radius=1.5, fraction=fraction)
        result = detector.detect(clustered_2d)
        expected = brute_force_db_outliers(clustered_2d, 1.5, fraction)
        assert np.array_equal(result.outlier_mask, expected)

    def test_3d(self, clustered_3d):
        detector = DistanceBasedDetector(radius=2.0, fraction=0.95)
        result = detector.detect(clustered_3d)
        expected = brute_force_db_outliers(clustered_3d, 2.0, 0.95)
        assert np.array_equal(result.outlier_mask, expected)

    @pytest.mark.parametrize("seed", [652, 1828])
    def test_non_core_points_on_boundary_lattices(self, seed):
        # A DB(fraction, radius)-outlier is a non-core point at
        # eps = radius and min_pts = threshold(n); these lattices hold
        # pairs whose squared distance sits on eps squared.
        dataset = generate_dataset(seed)
        n = dataset.n_points
        fraction = 1.0 - (dataset.min_pts - 0.5) / n
        detector = DistanceBasedDetector(radius=dataset.eps, fraction=fraction)
        assert detector.threshold(n) == dataset.min_pts
        expected = ~brute_force_core_mask(
            dataset.points, dataset.eps, dataset.min_pts
        )
        result = detector.detect(dataset.points)
        assert np.array_equal(result.outlier_mask, expected)

    def test_finds_isolated_point(self, rng):
        cluster = rng.normal(0.0, 0.3, size=(200, 2))
        points = np.vstack([cluster, [[50.0, 50.0]]])
        result = DistanceBasedDetector(radius=5.0, fraction=0.95).detect(
            points
        )
        assert result.outlier_mask[-1]
        assert not result.outlier_mask[:-1].any()


class TestPruning:
    def test_dense_cells_skip_counting(self):
        points = np.tile([[1.0, 1.0]], (100, 1))
        result = DistanceBasedDetector(radius=1.0, fraction=0.9).detect(points)
        assert result.stats["cells_counted"] == 0
        assert not result.outlier_mask.any()

    def test_isolated_cells_skip_counting(self, rng):
        points = rng.uniform(0.0, 1e8, size=(500, 2))
        result = DistanceBasedDetector(radius=1.0, fraction=0.9).detect(points)
        assert result.stats["cells_counted"] == 0
        assert result.outlier_mask.all()


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"radius": 0.0, "fraction": 0.9},
            {"radius": -1.0, "fraction": 0.9},
            {"radius": float("nan"), "fraction": 0.9},
            {"radius": 1.0, "fraction": 0.0},
            {"radius": 1.0, "fraction": 1.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            DistanceBasedDetector(**kwargs)

    def test_threshold(self):
        detector = DistanceBasedDetector(radius=1.0, fraction=0.95)
        assert detector.threshold(100) == 6  # floor(5) + 1
        assert detector.threshold(10) == 1

    def test_empty(self):
        result = DistanceBasedDetector(1.0, 0.9).detect(np.zeros((0, 2)))
        assert result.n_points == 0


coords = st.integers(min_value=-200, max_value=200).map(lambda k: k / 8.0)


@settings(max_examples=50, deadline=None)
@given(
    points=st.integers(min_value=1, max_value=50).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords)
    ),
    radius_k=st.integers(min_value=1, max_value=120),
    fraction=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
)
def test_matches_brute_force_property(points, radius_k, fraction):
    radius = radius_k / 8.0
    detector = DistanceBasedDetector(radius=radius, fraction=fraction)
    result = detector.detect(points)
    expected = brute_force_db_outliers(points, radius, fraction)
    assert np.array_equal(result.outlier_mask, expected)
