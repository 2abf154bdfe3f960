"""Tests for the nearest-core-distance scoring extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.reference import brute_force_core_mask, brute_force_detect
from repro.core.scoring import detect_with_scores, nearest_core_distance
from repro.core.vectorized import detect
from repro.qa.generators import generate_dataset


def brute_scores(points, eps, min_pts):
    """Reference: distance to nearest core, censored beyond the stencil."""
    core = brute_force_core_mask(points, eps, min_pts)
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    scores = np.full(points.shape[0], np.inf)
    scores[core] = 0.0
    if core.any():
        nearest = dists[:, core].min(axis=1)
        scores[~core] = nearest[~core]
    return scores, core


class TestScores:
    def test_core_points_score_zero(self, clustered_2d):
        scores = nearest_core_distance(clustered_2d, 0.8, 8)
        result = detect(clustered_2d, 0.8, 8)
        assert (scores[result.core_mask] == 0.0).all()
        assert (scores[~result.core_mask] > 0.0).all()

    def test_threshold_recovers_detector_exactly(self, clustered_2d):
        for eps, min_pts in ((0.5, 5), (0.8, 8), (1.5, 12)):
            scores = nearest_core_distance(clustered_2d, eps, min_pts)
            result = detect(clustered_2d, eps, min_pts)
            assert np.array_equal(scores > eps, result.outlier_mask)

    def test_matches_brute_force_within_stencil(self, clustered_2d):
        eps, min_pts = 0.8, 8
        scores = nearest_core_distance(clustered_2d, eps, min_pts)
        expected, _ = brute_scores(clustered_2d, eps, min_pts)
        # Where the stencil covers the nearest core, the value is exact;
        # beyond it the score is censored to inf (by design).
        finite = np.isfinite(scores)
        assert np.allclose(scores[finite], expected[finite])
        # Censoring only ever happens beyond eps, so inside the eps
        # band the values are always exact.
        near = expected <= eps
        assert np.isfinite(scores[near]).all()
        assert np.allclose(scores[near], expected[near])

    def test_no_cores_all_inf(self, rng):
        points = rng.uniform(-100, 100, size=(30, 2))
        scores = nearest_core_distance(points, 0.01, 5)
        assert np.isinf(scores).all()

    def test_ranking_separates_planted_outliers(self, rng):
        cluster = rng.normal(0.0, 0.4, size=(300, 2))
        planted = rng.uniform(5.0, 8.0, size=(10, 2))
        points = np.vstack([cluster, planted])
        scores = nearest_core_distance(points, 0.8, 8)
        from repro.metrics import roc_auc_score

        labels = np.concatenate([np.zeros(300), np.ones(10)])
        finite = np.where(np.isinf(scores), 1e18, scores)
        assert roc_auc_score(labels, finite) > 0.99

    def test_empty(self):
        assert nearest_core_distance(np.zeros((0, 2)), 1.0, 3).shape == (0,)


class TestDetectWithScores:
    def test_consistent_with_plain_detector(self, clustered_2d):
        with_scores = detect_with_scores(clustered_2d, 0.8, 8)
        plain = detect(clustered_2d, 0.8, 8)
        assert np.array_equal(
            with_scores.outlier_mask, plain.outlier_mask
        )
        assert np.array_equal(with_scores.core_mask, plain.core_mask)
        assert with_scores.scores is not None

    @pytest.mark.parametrize("seed", [236, 2075, 2454, 2914, 2978])
    def test_matches_oracle_when_score_rounds_onto_eps(self, seed):
        # Boundary lattices where a point's nearest core point lies one
        # ulp beyond eps squared: sqrt rounds its score to exactly eps,
        # so ``scores > eps`` would call the outlier an inlier.
        dataset = generate_dataset(seed)
        result = detect_with_scores(
            dataset.points, dataset.eps, dataset.min_pts
        )
        oracle = brute_force_detect(
            dataset.points, dataset.eps, dataset.min_pts
        )
        assert np.array_equal(result.outlier_mask, oracle.outlier_mask)
        assert np.array_equal(result.core_mask, oracle.core_mask)


coords = st.integers(min_value=-200, max_value=200).map(lambda k: k / 8.0)


@settings(max_examples=50, deadline=None)
@given(
    points=st.integers(min_value=1, max_value=50).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords)
    ),
    eps_k=st.integers(min_value=1, max_value=120),
    min_pts=st.integers(min_value=1, max_value=6),
)
def test_threshold_equivalence_property(points, eps_k, min_pts):
    eps = eps_k / 8.0
    scores = nearest_core_distance(points, eps, min_pts)
    result = detect(points, eps, min_pts)
    assert np.array_equal(scores > eps, result.outlier_mask)
    assert np.array_equal(scores == 0.0, result.core_mask)
