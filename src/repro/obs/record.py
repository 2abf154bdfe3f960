"""Structured run records: one JSON document per detector fit.

A :class:`RunRecord` is the machine-readable account of a single
``detect()``/``fit()`` call — parameters, dataset shape, per-phase
spans, unified counters, memory facts, and library versions — the
reproduction's stand-in for reading evidence off the Spark web UI.

Engines produce records through a :class:`RunRecorder`: open phase
spans on it, merge counters into its registry, then ``finish()``.
Finished records go to every installed sink (:class:`JsonlSink` for
files, :class:`InMemorySink` for harnesses); install one globally with
:func:`add_sink` / :func:`remove_sink` or scoped with
:func:`recording`.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from repro.obs.memory import memory_snapshot
from repro.obs.metrics import MetricsRegistry, to_builtin
from repro.obs.trace import SpanRecord, Tracer

__all__ = [
    "SCHEMA_VERSION",
    "RunRecord",
    "RunRecorder",
    "JsonlSink",
    "InMemorySink",
    "add_sink",
    "remove_sink",
    "recording",
    "installed_sinks",
]

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

_SINK_LOCK = threading.Lock()
_SINKS: list[Any] = []


def library_versions() -> dict[str, str]:
    """Versions of the moving parts, for cross-run comparability."""
    import platform

    import numpy

    versions = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        from repro import __version__

        versions["repro"] = __version__
    except ImportError:  # pragma: no cover - partial-import edge
        pass
    return versions


@dataclass(frozen=True)
class RunRecord:
    """One detector run, fully described.

    Attributes:
        schema_version: Layout version (:data:`SCHEMA_VERSION`).
        run_id: Random hex id unique to this run.
        created_at: Unix timestamp the run finished at.
        engine: Engine/detector name (``"vectorized"``, ...).
        params: Detector parameters (``eps``, ``min_pts``, ...).
        dataset: Input shape facts (``n_points``, ``n_dims``).
        spans: Closed span dicts (see
            :meth:`repro.obs.trace.SpanRecord.to_dict`).
        counters: Namespaced counter snapshot (``engine.*``,
            ``kernel.*``, ``sparklite.*``, ...).
        context: Engine configuration and derived structure facts
            (``kernel``, ``join_strategy``, ``n_cells``, ...).
        memory: Memory facts (``peak_rss_bytes``, optional
            ``tracemalloc_*`` when profiling).
        versions: Library versions (python/numpy/repro).
    """

    engine: str
    params: dict[str, Any] = field(default_factory=dict)
    dataset: dict[str, int] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    counters: dict[str, int | float] = field(default_factory=dict)
    context: dict[str, Any] = field(default_factory=dict)
    memory: dict[str, int] = field(default_factory=dict)
    versions: dict[str, str] = field(default_factory=dict)
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:16])
    created_at: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION

    # -- views ---------------------------------------------------------

    def phase_durations(self) -> dict[str, float]:
        """Duration per top-level span name, in first-seen order."""
        out: dict[str, float] = {}
        for payload in self.spans:
            if payload.get("depth", 0) == 0:
                name = payload["name"]
                out[name] = out.get(name, 0.0) + payload.get(
                    "duration_s", 0.0
                )
        return out

    def timing_breakdown(self):
        """The record's top-level spans as a ``TimingBreakdown`` view."""
        from repro.types import TimingBreakdown

        return TimingBreakdown(self.phase_durations())

    def flat_stats(self) -> dict[str, Any]:
        """Legacy flat ``DetectionResult.stats`` view over the record.

        Strips the ``engine.`` and ``sparklite.`` counter namespaces
        (their bare names are the long-standing stats keys) and keeps
        other namespaces (``kernel.*``) fully qualified; configuration
        context is merged in alongside.
        """
        out: dict[str, Any] = dict(self.context)
        for name, value in self.counters.items():
            for prefix in ("engine.", "sparklite."):
                if name.startswith(prefix):
                    out[name[len(prefix) :]] = value
                    break
            else:
                out[name] = value
        return out

    def span_records(self) -> list[SpanRecord]:
        """Spans rehydrated as :class:`SpanRecord` objects."""
        return [SpanRecord.from_dict(payload) for payload in self.spans]

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-builtins dict form (stable key order, JSON-safe).

        Non-finite floats (``nan``/``inf``) anywhere in the payload are
        mapped to ``None`` so the record survives strict JSON encoders
        and non-Python parsers.
        """
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "engine": self.engine,
            "params": to_builtin(dict(self.params), finite=True),
            "dataset": to_builtin(dict(self.dataset), finite=True),
            "spans": [
                to_builtin(dict(payload), finite=True)
                for payload in self.spans
            ],
            "counters": to_builtin(dict(self.counters), finite=True),
            "context": to_builtin(dict(self.context), finite=True),
            "memory": to_builtin(dict(self.memory), finite=True),
            "versions": dict(self.versions),
        }

    def to_json(self) -> str:
        """One-line JSON form (the JSONL record)."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Inverse of :meth:`to_dict` (tolerates missing optionals)."""
        return cls(
            engine=payload["engine"],
            params=dict(payload.get("params", {})),
            dataset=dict(payload.get("dataset", {})),
            spans=[dict(s) for s in payload.get("spans", [])],
            counters=dict(payload.get("counters", {})),
            context=dict(payload.get("context", {})),
            memory=dict(payload.get("memory", {})),
            versions=dict(payload.get("versions", {})),
            run_id=payload.get("run_id", "unknown"),
            created_at=payload.get("created_at", 0.0),
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
        )


class RunRecorder:
    """Builder for one run's record: spans + counters + context.

    Engines hold one per ``detect()`` call:

    1. ``with recorder.span("grid"): ...`` for each phase (always
       recorded — these become the per-phase breakdown);
    2. ``recorder.metrics.merge(counters, namespace="engine")`` once
       counters are final;
    3. ``record = recorder.finish(n_points=..., n_dims=...)``.

    ``recorder.activate()`` additionally routes fine-grained
    module-level spans (see :func:`repro.obs.trace.span`) into the
    same record while tracing is enabled.
    """

    def __init__(
        self,
        engine: str,
        params: Mapping[str, Any] | None = None,
        context: Mapping[str, Any] | None = None,
        profile_memory: bool | None = None,
    ) -> None:
        self.engine = engine
        self.params = dict(params or {})
        self.context = dict(context or {})
        self.tracer = Tracer(profile_memory=profile_memory)
        self.metrics = MetricsRegistry()
        self._finished: RunRecord | None = None

    def span(self, name: str, **attrs: Any):
        """Open a phase span on this run's tracer."""
        return self.tracer.span(name, **attrs)

    def activate(self):
        """Route fine-grained library spans into this run."""
        return self.tracer.activate()

    def add_context(self, **facts: Any) -> None:
        """Attach configuration/structure facts discovered mid-run."""
        self.context.update(facts)

    def finish(
        self, n_points: int, n_dims: int | None = None
    ) -> RunRecord:
        """Seal the record, emit it to installed sinks, and return it."""
        dataset: dict[str, int] = {"n_points": int(n_points)}
        if n_dims is not None:
            dataset["n_dims"] = int(n_dims)
        record = RunRecord(
            engine=self.engine,
            params=to_builtin(self.params),
            dataset=dataset,
            spans=[span.to_dict() for span in self.tracer.spans()],
            counters=self.metrics.snapshot(),
            context=to_builtin(self.context),
            memory=memory_snapshot(),
            versions=library_versions(),
        )
        self._finished = record
        for sink in installed_sinks():
            sink.write(record)
        return record


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------


class JsonlSink:
    """Append each finished record as one JSON line to a file."""

    def __init__(self, path) -> None:
        import pathlib

        self.path = pathlib.Path(path)
        self._lock = threading.Lock()

    def write(self, record: RunRecord) -> None:
        line = record.to_json() + os.linesep
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)

    @staticmethod
    def load(path) -> list[RunRecord]:
        """Read every record of a JSONL file written by this sink."""
        records: list[RunRecord] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    records.append(RunRecord.from_dict(json.loads(line)))
        return records


class InMemorySink:
    """Collect finished records in a list (for tests and harnesses)."""

    def __init__(self) -> None:
        self.records: list[RunRecord] = []
        self._lock = threading.Lock()

    def write(self, record: RunRecord) -> None:
        with self._lock:
            self.records.append(record)


def add_sink(sink: Any) -> None:
    """Install a sink; every subsequent finished record is written."""
    with _SINK_LOCK:
        _SINKS.append(sink)


def remove_sink(sink: Any) -> None:
    """Uninstall a sink installed with :func:`add_sink`."""
    with _SINK_LOCK:
        try:
            _SINKS.remove(sink)
        except ValueError:
            pass


def installed_sinks() -> list[Any]:
    """Currently installed sinks (copy)."""
    with _SINK_LOCK:
        return list(_SINKS)


class recording:
    """Scoped sink installation::

        with obs.recording(obs.JsonlSink("runs.jsonl")) as sink:
            DBSCOUT(eps, min_pts).fit(points)
    """

    def __init__(self, sink: Any | None = None) -> None:
        self.sink = sink if sink is not None else InMemorySink()

    def __enter__(self) -> Any:
        add_sink(self.sink)
        return self.sink

    def __exit__(self, *exc_info: object) -> bool:
        remove_sink(self.sink)
        return False


def iter_jsonl(path) -> Iterator[RunRecord]:
    """Stream records from a JSONL file without loading them all."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield RunRecord.from_dict(json.loads(line))
