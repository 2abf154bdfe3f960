"""Tests for the incremental DBSCOUT extension."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.incremental import IncrementalDBSCOUT
from repro.core.vectorized import detect as batch_detect
from repro.exceptions import DataValidationError, ParameterError


def batch_equivalent(detector: IncrementalDBSCOUT, points: np.ndarray):
    result = detector.detect()
    expected = batch_detect(points, detector.eps, detector.min_pts)
    assert np.array_equal(result.core_mask, expected.core_mask)
    assert np.array_equal(result.outlier_mask, expected.outlier_mask)


class TestBasics:
    def test_empty_detector(self):
        result = IncrementalDBSCOUT(1.0, 3).detect()
        assert result.n_points == 0

    def test_single_batch_matches_batch_engine(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        batch_equivalent(detector, clustered_2d)

    def test_two_batches_match_batch_engine(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d[:150])
        detector.insert(clustered_2d[150:])
        batch_equivalent(detector, clustered_2d)

    def test_detect_between_batches(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d[:100])
        batch_equivalent(detector, clustered_2d[:100])
        detector.insert(clustered_2d[100:])
        batch_equivalent(detector, clustered_2d)

    def test_many_small_batches(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        for start in range(0, clustered_2d.shape[0], 25):
            detector.insert(clustered_2d[start : start + 25])
            batch_equivalent(detector, clustered_2d[: start + 25])

    def test_point_by_point(self, rng):
        points = np.vstack(
            [rng.normal(0, 0.4, (30, 2)), rng.uniform(-5, 5, (5, 2))]
        )
        detector = IncrementalDBSCOUT(0.7, 4)
        for index in range(points.shape[0]):
            detector.insert(points[index : index + 1])
        batch_equivalent(detector, points)

    def test_empty_batch_is_noop(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.insert(np.zeros((0, 2)))
        batch_equivalent(detector, clustered_2d)

    def test_buffer_growth(self, rng):
        detector = IncrementalDBSCOUT(0.5, 3, initial_capacity=4)
        points = rng.normal(size=(300, 2))
        for start in range(0, 300, 7):
            detector.insert(points[start : start + 7])
        assert detector.n_points == 300
        batch_equivalent(detector, points)


class TestTransitions:
    def test_outlier_becomes_inlier(self):
        # A lone point is an outlier until a dense cluster forms around it.
        detector = IncrementalDBSCOUT(1.0, 4)
        detector.insert(np.array([[5.0, 5.0]]))
        assert detector.detect().outlier_mask.tolist() == [True]
        detector.insert(
            np.array([[5.1, 5.0], [5.0, 5.1], [4.9, 5.0], [5.0, 4.9]])
        )
        result = detector.detect()
        assert not result.outlier_mask.any()
        assert result.core_mask.all()

    def test_cell_becomes_dense(self):
        detector = IncrementalDBSCOUT(1.0, 5)
        base = np.tile([[1.0, 1.0]], (4, 1))
        detector.insert(base)
        assert not detector.detect().core_mask.any()
        detector.insert(np.array([[1.0, 1.0]]))
        result = detector.detect()
        assert result.core_mask.all()  # Lemma 1 kicks in at 5 points

    def test_far_insert_does_not_disturb_existing(self, rng):
        cluster = rng.normal(0.0, 0.3, size=(100, 2))
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(cluster)
        before = detector.detect()
        detector.insert(np.array([[1e6, 1e6]]))
        after = detector.detect()
        assert np.array_equal(
            before.outlier_mask, after.outlier_mask[:-1]
        )
        assert after.outlier_mask[-1]

    def test_neighbor_cell_promotion(self):
        # Points in an adjacent cell become core once the neighborhood
        # fills up — the update must propagate across the cell border.
        detector = IncrementalDBSCOUT(1.0, 6)
        side = 1.0 / np.sqrt(2.0)
        left = np.tile([[side - 0.01, 0.1]], (3, 1))
        detector.insert(left)
        assert not detector.detect().core_mask.any()
        right = np.tile([[side + 0.01, 0.1]], (3, 1))
        detector.insert(right)
        result = detector.detect()
        assert result.core_mask.all()


class TestRecomputationScope:
    def test_local_insert_recomputes_locally(self, rng):
        spread = rng.uniform(-100.0, 100.0, size=(2000, 2))
        detector = IncrementalDBSCOUT(1.0, 5)
        detector.insert(spread)
        detector.detect()
        detector.insert(rng.normal(0.0, 0.5, size=(10, 2)))
        result = detector.detect()
        # Only the neighborhood of the insertion should be touched.
        assert result.stats["outlier_cells_recomputed"] < 200
        assert result.stats["n_cells"] > 1000

    def test_clean_detect_is_cached(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        first = detector.detect()
        second = detector.detect()
        assert second.stats["dirty_cells"] == 0
        assert np.array_equal(first.outlier_mask, second.outlier_mask)


class TestValidation:
    def test_dimension_mismatch(self, clustered_2d, clustered_3d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        with pytest.raises(DataValidationError):
            detector.insert(clustered_3d)

    def test_invalid_capacity(self):
        with pytest.raises(ParameterError):
            IncrementalDBSCOUT(1.0, 3, initial_capacity=0)

    def test_repr(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        assert "pending_dirty" in repr(detector)


class TestTelemetry:
    def test_lifetime_counters_track_churn(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d[:100])
        detector.insert(clustered_2d[100:])
        detector.remove([0, 1, 2])
        detector.detect()
        counters = detector.metrics.snapshot()
        n = clustered_2d.shape[0]
        assert counters["incremental.inserts"] == 2
        assert counters["incremental.points_inserted"] == n
        assert counters["incremental.removes"] == 1
        assert counters["incremental.points_removed"] == 3
        assert counters["incremental.window_points"] == n - 3
        assert counters["incremental.detects"] == 1
        assert counters["incremental.core_cells_recomputed"] > 0
        assert detector.n_active == n - 3

    def test_detect_record_carries_counters_all_declared(
        self, clustered_2d
    ):
        from repro.obs.names import undeclared

        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        result = detector.detect()
        counters = result.record.counters
        assert counters["incremental.inserts"] == 1
        assert counters["incremental.detects"] == 1
        assert undeclared(counters) == []

    def test_insert_and_remove_emit_spans_when_tracing(
        self, clustered_2d
    ):
        from repro import obs

        detector = IncrementalDBSCOUT(0.8, 8)
        obs.enable_tracing()
        tracer = obs.Tracer()
        try:
            with tracer.activate():
                detector.insert(clustered_2d)
                detector.remove([0])
        finally:
            obs.disable_tracing()
        names = [record.name for record in tracer.spans()]
        assert "incremental.insert" in names
        assert "incremental.remove" in names


# Property: any insertion split yields the batch result (dyadic lattice
# for exact comparisons, as in test_core_properties).
coords = st.integers(min_value=-200, max_value=200).map(lambda k: k / 8.0)


@pytest.mark.parametrize("kernel", ["numpy", "c"])
@settings(max_examples=40, deadline=None)
@given(
    points=st.integers(min_value=1, max_value=40).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords)
    ),
    splits=st.lists(st.integers(min_value=0, max_value=40), max_size=4),
    eps_k=st.integers(min_value=1, max_value=80),
    min_pts=st.integers(min_value=1, max_value=6),
)
def test_any_split_matches_batch(kernel, points, splits, eps_k, min_pts):
    eps = eps_k / 8.0
    boundaries = sorted(s % (points.shape[0] + 1) for s in splits)
    detector = IncrementalDBSCOUT(eps, min_pts, kernel=kernel)
    previous = 0
    for boundary in boundaries + [points.shape[0]]:
        if boundary > previous:
            detector.insert(points[previous:boundary])
            previous = boundary
    if previous < points.shape[0]:
        detector.insert(points[previous:])
    result = detector.detect()
    expected = batch_detect(points, eps, min_pts, kernel=kernel)
    assert np.array_equal(result.core_mask, expected.core_mask)
    assert np.array_equal(result.outlier_mask, expected.outlier_mask)
