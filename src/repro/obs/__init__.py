"""Unified observability: tracing, metrics, and run records.

The paper reads its systems evidence off the Spark web UI (per-stage
times, shuffle volumes, task counts).  This package is the
reproduction's equivalent, shared by both engines and every extension:

* :mod:`repro.obs.trace` — nestable, thread/process-aware span tracer
  with a zero-overhead no-op mode for fine-grained instrumentation;
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry`, one namespaced
  counter schema over the vectorized engine's pruning counters, the
  kernel tier's facts and SparkLite's
  :class:`~repro.sparklite.EngineMetrics`;
* :mod:`repro.obs.memory` — peak-RSS and optional ``tracemalloc``
  accounting;
* :mod:`repro.obs.record` — the structured run record (one JSON
  document per ``fit()``) plus pluggable sinks;
* :mod:`repro.obs.report` — span-tree rendering and record diffing
  for regression triage;
* :mod:`repro.obs.names` — the canonical registry of every emitted
  metric family (kind + help text);
* :mod:`repro.obs.expose` — live telemetry exposition: Prometheus
  text / JSON rendering and the ``--metrics-port`` HTTP listener;
* :mod:`repro.obs.top` — the ``repro top`` terminal dashboard.

Typical use::

    import repro.obs as obs

    obs.enable_tracing()                     # fine-grained spans too
    with obs.recording(obs.JsonlSink("runs.jsonl")):
        result = DBSCOUT(eps=0.5, min_pts=10).fit(points)
    print(obs.format_record(result.record))
"""

from repro.obs import names
from repro.obs.expose import (
    MetricsHTTPServer,
    render_json,
    render_prometheus,
    telemetry_text,
)
from repro.obs.metrics import MetricsRegistry, to_builtin
from repro.obs.memory import memory_snapshot, peak_rss_bytes
from repro.obs.record import (
    SCHEMA_VERSION,
    InMemorySink,
    JsonlSink,
    RunRecord,
    RunRecorder,
    add_sink,
    installed_sinks,
    iter_jsonl,
    recording,
    remove_sink,
)
from repro.obs.report import (
    DiffEntry,
    RecordDiff,
    diff_records,
    format_diff,
    format_record,
    format_span_tree,
)
from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
    current_tracer,
    disable_profiling,
    disable_tracing,
    enable_profiling,
    enable_tracing,
    profiling_enabled,
    propagation_context,
    span,
    tracing_enabled,
)

__all__ = [
    # trace
    "Tracer",
    "Span",
    "SpanRecord",
    "TraceContext",
    "span",
    "NOOP_SPAN",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "current_tracer",
    "propagation_context",
    # metrics
    "MetricsRegistry",
    "to_builtin",
    # memory
    "peak_rss_bytes",
    "memory_snapshot",
    # record
    "SCHEMA_VERSION",
    "RunRecord",
    "RunRecorder",
    "JsonlSink",
    "InMemorySink",
    "add_sink",
    "remove_sink",
    "installed_sinks",
    "recording",
    "iter_jsonl",
    # report
    "RecordDiff",
    "DiffEntry",
    "diff_records",
    "format_diff",
    "format_record",
    "format_span_tree",
    # names + exposition
    "names",
    "MetricsHTTPServer",
    "render_prometheus",
    "render_json",
    "telemetry_text",
]
