"""Cross-cutting observability guarantees for every detector.

Parametrized over every engine and baseline in the library:

* ``DetectionResult.timings`` is populated with at least one phase;
* ``DetectionResult.stats`` is ``json.dumps``-able as-is;
* detectors that emit a run record produce a complete, serializable
  one, and the legacy ``timings``/``stats`` fields agree with it;
* detection output is bit-identical with tracing enabled or disabled.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import DBSCOUT, obs
from repro.baselines import (
    DBSCAN,
    HBOS,
    IsolationForest,
    KNNOutlierDetector,
    LocalOutlierFactor,
    OneClassSVM,
)
from repro.core.distance_based import DistanceBasedDetector
from repro.core.incremental import IncrementalDBSCOUT
from repro.core.scoring import detect_with_scores
from repro.sparklite import Context


def _incremental_detect(points):
    detector = IncrementalDBSCOUT(eps=0.8, min_pts=5)
    detector.insert(points)
    return detector.detect()


DETECTORS = {
    "vectorized-serial": lambda pts: DBSCOUT(
        eps=0.8, min_pts=5, engine="vectorized"
    ).fit(pts),
    "distributed-group": lambda pts: DBSCOUT(
        eps=0.8,
        min_pts=5,
        engine="distributed",
        num_partitions=4,
        join_strategy="group",
    ).fit(pts),
    "distributed-plain": lambda pts: DBSCOUT(
        eps=0.8,
        min_pts=5,
        engine="distributed",
        num_partitions=4,
        join_strategy="plain",
    ).fit(pts),
    "distributed-broadcast": lambda pts: DBSCOUT(
        eps=0.8,
        min_pts=5,
        engine="distributed",
        num_partitions=4,
        join_strategy="broadcast",
    ).fit(pts),
    "incremental": _incremental_detect,
    "scores": lambda pts: detect_with_scores(pts, eps=0.8, min_pts=5),
    "distance-based": lambda pts: DistanceBasedDetector(
        radius=0.8, fraction=0.95
    ).detect(pts),
    "dbscan": lambda pts: DBSCAN(eps=0.8, min_pts=5).detect(pts),
    "lof": lambda pts: LocalOutlierFactor(k=5).detect(pts),
    "iforest": lambda pts: IsolationForest(
        n_trees=10, seed=0
    ).detect(pts),
    "ocsvm": lambda pts: OneClassSVM(seed=0).detect(pts),
    "knn": lambda pts: KNNOutlierDetector(
        k=5, contamination=0.05
    ).detect(pts),
    "hbos": lambda pts: HBOS().detect(pts),
}


@pytest.fixture(autouse=True)
def _tracing_off():
    obs.disable_tracing()
    yield
    obs.disable_tracing()


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_populates_timings(clustered_2d, name):
    result = DETECTORS[name](clustered_2d)
    assert result.timings is not None, f"{name} has no timings"
    assert len(result.timings.phases) >= 1
    assert all(
        duration >= 0.0 for duration in result.timings.phases.values()
    )
    assert result.timings.total >= 0.0


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_stats_are_json_safe(clustered_2d, name):
    result = DETECTORS[name](clustered_2d)
    encoded = json.dumps(result.stats)
    assert json.loads(encoded) is not None


@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_every_detector_emits_a_complete_run_record(clustered_2d, name):
    with obs.recording() as sink:
        result = DETECTORS[name](clustered_2d)
    assert sink.records, f"{name} emitted no run record"
    record = sink.records[-1]
    assert result.record is not None
    assert result.record.run_id == record.run_id
    assert record.schema_version == obs.SCHEMA_VERSION
    assert record.dataset["n_points"] == clustered_2d.shape[0]
    assert record.phase_durations()
    assert record.memory.get("peak_rss_bytes", 0) > 0
    assert record.versions.keys() >= {"python", "numpy"}
    # The record round-trips through its JSONL form.
    clone = obs.RunRecord.from_dict(json.loads(record.to_json()))
    assert clone.counters == record.counters
    # The result's legacy fields are views over the record.
    assert result.timings.phases == record.phase_durations()
    assert result.stats == record.flat_stats()


@pytest.mark.parametrize(
    "name",
    [
        "vectorized-serial",
        "distributed-group",
        "distributed-broadcast",
    ],
)
def test_tracing_does_not_change_detection_output(clustered_2d, name):
    plain = DETECTORS[name](clustered_2d)
    obs.enable_tracing()
    try:
        traced = DETECTORS[name](clustered_2d)
    finally:
        obs.disable_tracing()
    np.testing.assert_array_equal(
        plain.outlier_mask, traced.outlier_mask
    )
    if plain.core_mask is not None:
        np.testing.assert_array_equal(plain.core_mask, traced.core_mask)
    # With tracing on, the distributed record gains substrate spans.
    if name.startswith("distributed"):
        names = {span["name"] for span in traced.record.spans}
        assert "sparklite.shuffle" in names


def test_engine_counters_are_namespaced_in_records(clustered_2d):
    with obs.recording() as sink:
        DBSCOUT(eps=0.8, min_pts=5, engine="vectorized").fit(clustered_2d)
        DBSCOUT(
            eps=0.8, min_pts=5, engine="distributed", num_partitions=4
        ).fit(clustered_2d)
    vec_record, dist_record = sink.records
    assert any(
        name.startswith("engine.") for name in vec_record.counters
    )
    assert any(
        name.startswith("sparklite.") for name in dist_record.counters
    )
    # Legacy stats views strip the namespaces.
    assert "distance_computations" in vec_record.flat_stats()
    assert "tasks_executed" in dist_record.flat_stats()


def test_external_context_reports_per_run_deltas(clustered_2d):
    """Satellite: a shared Context accumulates, results report deltas."""
    context = Context(default_parallelism=4, max_workers=1)
    from repro.core.distributed import DistributedEngine

    engine = DistributedEngine(num_partitions=4, context=context)
    first = engine.detect(clustered_2d, eps=0.8, min_pts=5)
    second = engine.detect(clustered_2d, eps=0.8, min_pts=5)
    # Same work both runs: the per-run deltas match...
    assert first.stats["tasks_executed"] == second.stats["tasks_executed"]
    assert first.stats["records_shuffled"] == (
        second.stats["records_shuffled"]
    )
    assert first.stats["tasks_executed"] > 0
    # ...while the context's cumulative view keeps growing.
    cumulative = context.metrics.snapshot()
    assert cumulative["tasks_executed"] >= (
        first.stats["tasks_executed"] * 2
    )


def test_geographic_wrapper_propagates_the_record():
    from repro.core.geographic import detect_geographic

    rng = np.random.default_rng(0)
    latlon = np.vstack(
        [
            rng.normal((48.85, 2.35), 0.005, size=(300, 2)),
            np.array([[49.5, 3.4]]),
        ]
    )
    result = detect_geographic(latlon, eps_meters=500.0, min_pts=10)
    assert result.record is not None
    assert result.timings is not None
    assert result.stats["projection"] == "equirectangular"
    json.dumps(result.stats)
