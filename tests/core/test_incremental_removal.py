"""Tests for deletion / sliding-window support in IncrementalDBSCOUT."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalDBSCOUT
from repro.core.vectorized import detect as batch_detect
from repro.exceptions import ParameterError


def active_equivalent(detector: IncrementalDBSCOUT, all_points: np.ndarray):
    """Result restricted to active points equals batch on that subset."""
    result = detector.detect()
    active = detector.active_mask
    expected = batch_detect(all_points[active], detector.eps, detector.min_pts)
    assert np.array_equal(result.core_mask[active], expected.core_mask)
    assert np.array_equal(result.outlier_mask[active], expected.outlier_mask)
    # Removed points are neither core nor outliers.
    assert not result.core_mask[~active].any()
    assert not result.outlier_mask[~active].any()


class TestRemoval:
    def test_remove_then_matches_batch_on_survivors(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.detect()
        detector.remove(np.arange(0, 60))
        active_equivalent(detector, clustered_2d)

    def test_remove_before_first_detect(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.remove([0, 5, 10])
        active_equivalent(detector, clustered_2d)

    def test_inlier_becomes_outlier_when_cluster_dissolves(self):
        cluster = np.tile([[1.0, 1.0]], (6, 1)) + np.linspace(
            0, 0.01, 6
        ).reshape(-1, 1)
        detector = IncrementalDBSCOUT(1.0, 5)
        detector.insert(cluster)
        assert not detector.detect().outlier_mask.any()
        detector.remove([0, 1, 2, 3])  # only two points remain
        result = detector.detect()
        active = detector.active_mask
        assert result.outlier_mask[active].all()

    def test_core_status_degrades_across_cells(self):
        # Removing support in a neighbor cell demotes cores next door.
        side = 1.0 / np.sqrt(2.0)
        left = np.tile([[side - 0.01, 0.1]], (3, 1))
        right = np.tile([[side + 0.01, 0.1]], (3, 1))
        detector = IncrementalDBSCOUT(1.0, 6)
        detector.insert(np.vstack([left, right]))
        assert detector.detect().core_mask.all()
        detector.remove([5])
        result = detector.detect()
        active = detector.active_mask
        assert not result.core_mask[active].any()

    def test_sliding_window_stream(self, rng):
        # A window of 3 batches slides over a drifting stream; after
        # every slide the result equals batch detection on the window.
        batches = [
            rng.normal(loc=(step * 0.5, 0.0), scale=0.3, size=(40, 2))
            for step in range(8)
        ]
        detector = IncrementalDBSCOUT(0.6, 5)
        all_points = np.zeros((0, 2))
        window_start = 0  # index of the first active point
        for step, batch in enumerate(batches):
            detector.insert(batch)
            all_points = np.vstack([all_points, batch])
            if step >= 3:
                expired = np.arange(window_start, window_start + 40)
                detector.remove(expired)
                window_start += 40
            active_equivalent(detector, all_points)

    def test_remove_then_reinsert_region(self, rng):
        points = rng.normal(size=(100, 2))
        detector = IncrementalDBSCOUT(0.5, 4)
        detector.insert(points)
        detector.detect()
        detector.remove(np.arange(50))
        detector.detect()
        fresh = rng.normal(size=(30, 2))
        detector.insert(fresh)
        combined = np.vstack([points, fresh])
        active_equivalent(detector, combined)

    def test_empty_removal_is_noop(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        before = detector.detect()
        detector.remove(np.array([], dtype=np.int64))
        after = detector.detect()
        assert np.array_equal(before.outlier_mask, after.outlier_mask)


class TestRandomisedSequences:
    """Hypothesis: arbitrary insert/remove interleavings match batch."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @pytest.mark.parametrize("kernel", ["numpy", "c"])
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_operations=st.integers(min_value=1, max_value=8),
        eps_k=st.integers(min_value=2, max_value=40),
        min_pts=st.integers(min_value=1, max_value=5),
    )
    def test_interleaved_ops_match_batch(
        self, kernel, seed, n_operations, eps_k, min_pts
    ):
        import numpy as np

        eps = eps_k / 8.0
        rng = np.random.default_rng(seed)
        detector = IncrementalDBSCOUT(eps, min_pts, kernel=kernel)
        points = np.zeros((0, 2))
        active = np.zeros(0, dtype=bool)
        for _ in range(n_operations):
            if active.sum() > 4 and rng.random() < 0.4:
                candidates = np.flatnonzero(active)
                chosen = rng.choice(
                    candidates,
                    size=rng.integers(1, min(4, candidates.size) + 1),
                    replace=False,
                )
                detector.remove(chosen)
                active[chosen] = False
            else:
                batch = np.round(
                    rng.uniform(-10, 10, size=(rng.integers(1, 8), 2)) * 8
                ) / 8.0
                detector.insert(batch)
                points = np.vstack([points, batch])
                active = np.concatenate(
                    [active, np.ones(batch.shape[0], dtype=bool)]
                )
            if rng.random() < 0.5:
                detector.detect()  # interleave detections
        result = detector.detect()
        expected = batch_detect(points[active], eps, min_pts, kernel=kernel)
        assert np.array_equal(result.core_mask[active], expected.core_mask)
        assert np.array_equal(
            result.outlier_mask[active], expected.outlier_mask
        )
        assert not result.outlier_mask[~active].any()


class TestRemovalValidation:
    def test_out_of_range(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        with pytest.raises(ParameterError):
            detector.remove([clustered_2d.shape[0]])
        with pytest.raises(ParameterError):
            detector.remove([-1])

    def test_double_removal(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.remove([3])
        with pytest.raises(ParameterError):
            detector.remove([3])

    def test_active_mask_reflects_removals(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.remove([1, 4])
        active = detector.active_mask
        assert not active[1] and not active[4]
        assert active.sum() == clustered_2d.shape[0] - 2
