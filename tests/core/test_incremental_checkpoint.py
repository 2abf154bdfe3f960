"""Tests for IncrementalDBSCOUT checkpointing (save/load)."""

import pathlib

import numpy as np
import pytest

from repro.core.incremental import IncrementalDBSCOUT
from repro.core.vectorized import detect as batch_detect
from repro.exceptions import DataValidationError, ParameterError


class TestCheckpoint:
    def test_roundtrip_preserves_result(self, clustered_2d, tmp_path):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        original = detector.detect()
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalDBSCOUT.load(path)
        result = restored.detect()
        assert np.array_equal(result.outlier_mask, original.outlier_mask)
        assert np.array_equal(result.core_mask, original.core_mask)

    def test_restored_detector_accepts_inserts(self, clustered_2d, tmp_path):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d[:200])
        detector.detect()
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalDBSCOUT.load(path)
        restored.insert(clustered_2d[200:])
        result = restored.detect()
        expected = batch_detect(clustered_2d, 0.8, 8)
        assert np.array_equal(result.outlier_mask, expected.outlier_mask)

    def test_pending_dirty_state_survives(self, clustered_2d, tmp_path):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d[:200])
        detector.detect()
        detector.insert(clustered_2d[200:])  # dirty, not yet detected
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalDBSCOUT.load(path)
        result = restored.detect()
        expected = batch_detect(clustered_2d, 0.8, 8)
        assert np.array_equal(result.outlier_mask, expected.outlier_mask)

    def test_removals_survive(self, clustered_2d, tmp_path):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.remove(np.arange(50))
        detector.detect()
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalDBSCOUT.load(path)
        assert not restored.active_mask[:50].any()
        result = restored.detect()
        expected = batch_detect(clustered_2d[50:], 0.8, 8)
        assert np.array_equal(
            result.outlier_mask[50:], expected.outlier_mask
        )

    def test_parameters_restored(self, clustered_2d, tmp_path):
        detector = IncrementalDBSCOUT(0.37, 7)
        detector.insert(clustered_2d)
        path = tmp_path / "state.npz"
        detector.save(path)
        restored = IncrementalDBSCOUT.load(path)
        assert restored.eps == 0.37
        assert restored.min_pts == 7
        assert restored.n_points == clustered_2d.shape[0]

    def test_empty_detector_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            IncrementalDBSCOUT(1.0, 3).save(tmp_path / "state.npz")

    def test_missing_checkpoint(self, tmp_path):
        with pytest.raises(DataValidationError):
            IncrementalDBSCOUT.load(tmp_path / "nope.npz")


#: A checkpoint written by the per-cell incremental engine that
#: preceded the dirty-region pipeline; ``_fixture_detector`` rebuilds
#: the state it holds.
FIXTURE = pathlib.Path(__file__).parent / "data" / "incremental_checkpoint.npz"


def _fixture_detector() -> IncrementalDBSCOUT:
    """Detected inserts, removals, and a pending (undetected) tail."""
    rng = np.random.default_rng(2021)
    points = np.vstack(
        [
            rng.normal(0.0, 0.6, size=(220, 2)),
            rng.uniform(-5.0, 5.0, size=(60, 2)),
        ]
    )[rng.permutation(280)]
    detector = IncrementalDBSCOUT(0.5, 5)
    detector.insert(points[:200])
    detector.detect()
    detector.remove(np.arange(0, 200, 9))
    detector.insert(points[200:])
    detector.remove([205, 250])
    return detector


class TestCheckpointFormat:
    def test_committed_checkpoint_loads_with_batch_labels(self):
        restored = IncrementalDBSCOUT.load(FIXTURE)
        with np.load(FIXTURE) as archive:
            points = archive["points"]
        active = restored.active_mask
        result = restored.detect()
        expected = batch_detect(points[active], 0.5, 5)
        assert np.array_equal(result.core_mask[active], expected.core_mask)
        assert np.array_equal(
            result.outlier_mask[active], expected.outlier_mask
        )
        assert not result.outlier_mask[~active].any()

    def test_save_writes_the_committed_format(self, tmp_path):
        path = tmp_path / "state.npz"
        _fixture_detector().save(path)
        with np.load(FIXTURE) as old, np.load(path) as new:
            assert sorted(old.files) == sorted(new.files)
            for key in old.files:
                assert old[key].dtype == new[key].dtype, key
                assert np.array_equal(old[key], new[key]), key
