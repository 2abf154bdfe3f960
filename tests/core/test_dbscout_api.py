"""Tests for the DBSCOUT public API facade."""

import numpy as np
import pytest

from repro import DBSCOUT, detect_outliers
from repro.exceptions import NotFittedError, ParameterError
from repro.types import DetectionResult


class TestConstruction:
    def test_defaults_to_vectorized(self):
        detector = DBSCOUT(eps=1.0, min_pts=5)
        assert detector.engine_name == "vectorized"

    def test_distributed_options_forwarded(self):
        detector = DBSCOUT(
            eps=1.0,
            min_pts=5,
            engine="distributed",
            num_partitions=3,
            join_strategy="plain",
        )
        assert detector._engine.num_partitions == 3
        assert detector._engine.join_strategy == "plain"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            DBSCOUT(eps=1.0, min_pts=5, engine="quantum")

    def test_vectorized_rejects_engine_options(self):
        with pytest.raises(ParameterError):
            DBSCOUT(eps=1.0, min_pts=5, num_partitions=4)

    @pytest.mark.parametrize(
        "eps,min_pts", [(-1.0, 5), (0.0, 5), (1.0, 0), (1.0, -3), (1.0, 1.5)]
    )
    def test_invalid_parameters(self, eps, min_pts):
        with pytest.raises(ParameterError):
            DBSCOUT(eps=eps, min_pts=min_pts)

    def test_repr(self):
        assert "eps=1.0" in repr(DBSCOUT(eps=1.0, min_pts=5))

    @pytest.mark.parametrize("bad", [0, 1.5, "x", True])
    def test_invalid_n_jobs_rejected(self, bad):
        with pytest.raises(ParameterError, match="n_jobs"):
            DBSCOUT(eps=1.0, min_pts=5, n_jobs=bad)

    def test_unknown_vectorized_options_listed_sorted(self):
        with pytest.raises(ParameterError) as excinfo:
            DBSCOUT(eps=1.0, min_pts=5, zeta=1, alpha=2)
        assert "alpha, zeta" in str(excinfo.value)

    @pytest.mark.parametrize(
        "option",
        [
            {"quality": "fast"},
            {"sample_fraction": 0.5},
            {"seed": 0},
        ],
        ids=["quality", "sample_fraction", "seed"],
    )
    def test_removed_quality_options_rejected(self, option):
        # Fits are exact only; the approximate tier's options are gone.
        (name,) = option
        with pytest.raises(ParameterError, match=name):
            DBSCOUT(eps=1.0, min_pts=5, **option)

    @pytest.mark.parametrize(
        "option",
        [{"n_jobs": 2}, {"pair_budget": 1000}, {"cell_planner": "tree"}],
        ids=["n_jobs", "pair_budget", "cell_planner"],
    )
    def test_removed_speed_options_rejected(self, option):
        # kernel is the vectorized engine's one option; the process
        # pool, the batch size and the planner choice are gone.
        (name,) = option
        with pytest.raises(ParameterError, match=name):
            DBSCOUT(eps=1.0, min_pts=5, **option)


class TestFit:
    def test_fit_returns_result(self, clustered_2d):
        result = DBSCOUT(eps=0.8, min_pts=8).fit(clustered_2d)
        assert isinstance(result, DetectionResult)
        assert result.n_points == clustered_2d.shape[0]

    def test_result_property_after_fit(self, clustered_2d):
        detector = DBSCOUT(eps=0.8, min_pts=8)
        result = detector.fit(clustered_2d)
        assert detector.result_ is result

    def test_result_property_before_fit(self):
        with pytest.raises(NotFittedError):
            DBSCOUT(eps=0.8, min_pts=8).result_

    def test_fit_predict_labels(self, clustered_2d):
        labels = DBSCOUT(eps=0.8, min_pts=8).fit_predict(clustered_2d)
        assert labels.dtype == np.int64
        assert set(np.unique(labels)) <= {0, 1}

    def test_engines_agree(self, clustered_2d):
        vec = DBSCOUT(eps=0.8, min_pts=8).fit(clustered_2d)
        dist = DBSCOUT(
            eps=0.8, min_pts=8, engine="distributed", num_partitions=4
        ).fit(clustered_2d)
        assert np.array_equal(vec.outlier_mask, dist.outlier_mask)

    def test_functional_form(self, clustered_2d):
        result = detect_outliers(clustered_2d, 0.8, 8)
        reference = DBSCOUT(eps=0.8, min_pts=8).fit(clustered_2d)
        assert np.array_equal(result.outlier_mask, reference.outlier_mask)

    def test_refit_replaces_result(self, clustered_2d):
        detector = DBSCOUT(eps=0.8, min_pts=8)
        first = detector.fit(clustered_2d)
        second = detector.fit(clustered_2d[:100])
        assert detector.result_ is second
        assert detector.result_ is not first


class TestDetectionResult:
    def test_outlier_indices_sorted(self, clustered_2d):
        result = detect_outliers(clustered_2d, 0.8, 8)
        indices = result.outlier_indices
        assert (np.diff(indices) > 0).all()
        assert result.outlier_mask[indices].all()

    def test_counts_consistent(self, clustered_2d):
        result = detect_outliers(clustered_2d, 0.8, 8)
        assert result.n_outliers == result.outlier_mask.sum()
        assert result.n_core_points == result.core_mask.sum()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DetectionResult(n_points=5, outlier_mask=np.zeros(4, dtype=bool))

    def test_core_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DetectionResult(
                n_points=3,
                outlier_mask=np.zeros(3, dtype=bool),
                core_mask=np.zeros(2, dtype=bool),
            )

    def test_labels_are_int(self, clustered_2d):
        result = detect_outliers(clustered_2d, 0.8, 8)
        labels = result.labels()
        assert labels.dtype == np.int64
        assert (labels == result.outlier_mask.astype(int)).all()

    def test_no_core_mask_counts_zero(self):
        result = DetectionResult(n_points=2, outlier_mask=np.zeros(2, bool))
        assert result.n_core_points == 0
