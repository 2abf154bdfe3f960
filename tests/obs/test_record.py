"""Run-record schema, sinks, and metrics-registry behavior."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import to_builtin
from repro.types import TimingBreakdown


def _finished_record() -> obs.RunRecord:
    recorder = obs.RunRecorder(
        engine="vectorized",
        params={"eps": 0.5, "min_pts": np.int64(10)},
        context={"engine": "vectorized", "kernel": "numpy"},
    )
    with recorder.span("grid"):
        pass
    with recorder.span("core_points"):
        with recorder.tracer.span("nested"):
            pass
    recorder.metrics.merge(
        {"distance_computations": np.int64(123), "kernel.fallback": 2},
        namespace="engine",
    )
    recorder.add_context(n_cells=7)
    return recorder.finish(n_points=100, n_dims=2)


def test_record_json_round_trip():
    record = _finished_record()
    line = record.to_json()
    clone = obs.RunRecord.from_dict(json.loads(line))
    assert clone.engine == record.engine
    assert clone.params == {"eps": 0.5, "min_pts": 10}
    assert clone.dataset == {"n_points": 100, "n_dims": 2}
    assert clone.counters == record.counters
    assert clone.run_id == record.run_id
    assert clone.schema_version == obs.SCHEMA_VERSION
    assert clone.phase_durations() == record.phase_durations()


def test_record_schema_contents():
    record = _finished_record()
    payload = record.to_dict()
    assert set(payload) == {
        "schema_version",
        "run_id",
        "created_at",
        "engine",
        "params",
        "dataset",
        "spans",
        "counters",
        "context",
        "memory",
        "versions",
    }
    assert payload["versions"].keys() >= {"python", "numpy"}
    # Namespacing: plain keys get the namespace, dotted keys pass
    # through untouched.
    assert payload["counters"]["engine.distance_computations"] == 123
    assert payload["counters"]["kernel.fallback"] == 2
    assert payload["memory"].get("peak_rss_bytes", 0) > 0


def test_flat_stats_strips_engine_namespace_only():
    record = _finished_record()
    stats = record.flat_stats()
    assert stats["distance_computations"] == 123
    assert stats["kernel.fallback"] == 2
    assert stats["kernel"] == "numpy"
    assert stats["n_cells"] == 7
    assert "engine.distance_computations" not in stats


def test_timing_breakdown_uses_top_level_spans_only():
    record = _finished_record()
    timings = record.timing_breakdown()
    assert isinstance(timings, TimingBreakdown)
    assert set(timings.phases) == {"grid", "core_points"}
    assert "nested" not in timings.phases


def test_jsonl_sink_appends_and_loads(tmp_path):
    path = tmp_path / "runs" / "records.jsonl"
    sink = obs.JsonlSink(path)
    first, second = _finished_record(), _finished_record()
    sink.write(first)
    sink.write(second)
    loaded = obs.JsonlSink.load(path)
    assert [record.run_id for record in loaded] == [
        first.run_id,
        second.run_id,
    ]
    streamed = list(obs.iter_jsonl(path))
    assert [record.run_id for record in streamed] == [
        first.run_id,
        second.run_id,
    ]


def test_recording_scopes_the_sink():
    from repro.core.vectorized import VectorizedEngine

    points = np.random.default_rng(0).normal(size=(60, 2))
    with obs.recording() as sink:
        VectorizedEngine().detect(points, eps=0.5, min_pts=5)
    assert len(sink.records) == 1
    record = sink.records[0]
    assert record.engine == "vectorized"
    assert record.dataset == {"n_points": 60, "n_dims": 2}
    # Outside the block nothing is captured anymore.
    VectorizedEngine().detect(points, eps=0.5, min_pts=5)
    assert len(sink.records) == 1


def test_metrics_registry_namespacing_and_merge():
    registry = obs.MetricsRegistry()
    registry.increment("engine.distance_computations", 5)
    registry.merge(
        {"pruned_cells": 3, "kernel.fallback": 4}, namespace="engine"
    )
    registry.set("sparklite.tasks_executed", 9)
    snapshot = registry.snapshot()
    assert snapshot == {
        "engine.distance_computations": 5,
        "engine.pruned_cells": 3,
        "kernel.fallback": 4,
        "sparklite.tasks_executed": 9,
    }
    assert registry.namespace("engine") == {
        "distance_computations": 5,
        "pruned_cells": 3,
    }


def test_to_builtin_sanitizes_numpy_and_keeps_tuples():
    value = {
        "count": np.int64(3),
        "ratio": np.float64(0.5),
        "flag": np.bool_(True),
        "array": np.arange(3),
        "origin": (np.float64(10.0), 20.0),
        "nested": {"k": [np.int32(1)]},
    }
    result = to_builtin(value)
    assert result["count"] == 3 and type(result["count"]) is int
    assert result["ratio"] == 0.5 and type(result["ratio"]) is float
    assert result["flag"] is True
    assert result["array"] == [0, 1, 2]
    assert result["origin"] == (10.0, 20.0)
    assert isinstance(result["origin"], tuple)
    assert result["nested"] == {"k": [1]}
    json.dumps(result)  # everything JSON-serializable


def test_timing_breakdown_from_spans_classmethod():
    spans = [
        {"name": "grid", "depth": 0, "duration_s": 0.25},
        {"name": "grid", "depth": 0, "duration_s": 0.25},
        {"name": "inner", "depth": 1, "duration_s": 9.0},
    ]
    timings = TimingBreakdown.from_spans(spans)
    assert timings.phases == {"grid": 0.5}
    assert timings.total == pytest.approx(0.5)


def test_memory_snapshot_reports_rss():
    snapshot = obs.memory_snapshot()
    assert snapshot.get("peak_rss_bytes", 0) > 0


def test_to_builtin_finite_maps_nonfinite_to_none():
    value = {
        "nan": float("nan"),
        "np_nan": np.float64("nan"),
        "inf": float("inf"),
        "neg_inf": np.float32("-inf"),
        "ok": 1.5,
        "array": np.array([1.0, np.nan, np.inf]),
        "nested": {"deep": [float("nan"), (np.inf, 2.0)]},
    }
    result = to_builtin(value, finite=True)
    assert result["nan"] is None
    assert result["np_nan"] is None
    assert result["inf"] is None
    assert result["neg_inf"] is None
    assert result["ok"] == 1.5
    assert result["array"] == [1.0, None, None]
    assert result["nested"] == {"deep": [None, (None, 2.0)]}
    json.dumps(result, allow_nan=False)  # strict encoders accept it


def test_to_builtin_default_propagates_nan_for_arithmetic():
    # The MetricsRegistry arithmetic path must not see None.
    value = to_builtin(np.float64("nan"))
    assert isinstance(value, float) and value != value


def test_detection_result_stats_json_safe_with_nonfinite():
    from repro.types import DetectionResult

    result = DetectionResult(
        n_points=3,
        outlier_mask=np.zeros(3, dtype=bool),
        stats={
            "elbow_curvature": float("nan"),
            "ratio": np.float64("inf"),
            "nested": {"scores": np.array([0.5, np.nan])},
            "count": np.int64(7),
        },
    )
    assert result.stats["elbow_curvature"] is None
    assert result.stats["ratio"] is None
    assert result.stats["nested"] == {"scores": [0.5, None]}
    assert result.stats["count"] == 7
    json.dumps(result.stats, allow_nan=False)


def test_run_record_to_json_strict_with_nonfinite_everywhere():
    record = obs.RunRecord(
        engine="vectorized",
        params={"eps": float("nan")},
        counters={"engine.budget": float("inf")},
        context={"curvature": np.float64("-inf")},
        spans=[{"name": "grid", "depth": 0, "duration_s": float("nan")}],
        memory={"peak_rss_bytes": 1},
    )
    payload = record.to_dict()
    assert payload["params"]["eps"] is None
    assert payload["counters"]["engine.budget"] is None
    assert payload["context"]["curvature"] is None
    assert payload["spans"][0]["duration_s"] is None
    # strict: would raise ValueError if any NaN/Inf survived
    line = record.to_json()
    assert "NaN" not in line and "Infinity" not in line
    restored = obs.RunRecord.from_dict(json.loads(line))
    assert restored.engine == "vectorized"
