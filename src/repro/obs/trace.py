"""Span-based tracing for the DBSCOUT engines and substrate.

A :class:`Tracer` collects :class:`SpanRecord` entries from nested
``with tracer.span("core_points"):`` blocks.  Spans are thread- and
process-aware (each records the thread name and PID it closed on) and
exception-safe: a span whose body raises is still closed and recorded,
tagged with the exception type.

Two usage tiers share this module:

* **Per-run phase spans.**  Every engine ``detect()`` creates its own
  tracer (via :class:`repro.obs.record.RunRecorder`) and wraps its
  pipeline phases.  These spans always record — a handful per fit, so
  the cost is negligible — and become the run record's per-phase
  breakdown.
* **Fine-grained library spans.**  Instrumentation points deep in the
  substrate (SparkLite shuffle materialization, net dispatch, ...)
  call the module-level :func:`span` helper.  That helper is a strict
  no-op unless tracing has been switched on with
  :func:`enable_tracing` *and* a tracer is active (made current with
  :meth:`Tracer.activate`), so the default hot path pays one global
  flag check and nothing else.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "SpanRecord",
    "Span",
    "Tracer",
    "TraceContext",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "enable_profiling",
    "disable_profiling",
    "profiling_enabled",
    "current_tracer",
    "propagation_context",
]

#: Process-wide switch for the fine-grained (module-level) spans.
_TRACING = False
#: Process-wide switch for per-span ``tracemalloc`` accounting.
_PROFILING = False

_STATE_LOCK = threading.Lock()
#: Stack of tracers made current with :meth:`Tracer.activate`; the top
#: receives fine-grained spans.  A plain list (not a context var) so
#: SparkLite executor threads spawned mid-run still attach their spans.
_ACTIVE_TRACERS: list["Tracer"] = []


def enable_tracing() -> None:
    """Turn on fine-grained library spans (sparklite, netexec, ...)."""
    global _TRACING
    _TRACING = True


def disable_tracing() -> None:
    """Return the module-level :func:`span` helper to no-op mode."""
    global _TRACING
    _TRACING = False


def tracing_enabled() -> bool:
    """Whether fine-grained spans are being collected."""
    return _TRACING


def enable_profiling() -> None:
    """Record per-span ``tracemalloc`` deltas on every tracer.

    Starts ``tracemalloc`` if it is not already tracing.  Expect a
    substantial slowdown — this is a diagnostics mode, not a default.
    """
    global _PROFILING
    import tracemalloc

    if not tracemalloc.is_tracing():
        tracemalloc.start()
    _PROFILING = True


def disable_profiling() -> None:
    """Stop per-span memory accounting (leaves ``tracemalloc`` running)."""
    global _PROFILING
    _PROFILING = False


def profiling_enabled() -> bool:
    """Whether per-span ``tracemalloc`` accounting is on."""
    return _PROFILING


def current_tracer() -> "Tracer | None":
    """The innermost active tracer, or ``None`` outside any run."""
    with _STATE_LOCK:
        return _ACTIVE_TRACERS[-1] if _ACTIVE_TRACERS else None


@dataclass(frozen=True)
class TraceContext:
    """Wire-able coordinates of an open span in some tracer.

    Shipped inside task/control frames so a remote process can run its
    work under a fresh :class:`Tracer` and the originating driver can
    graft the resulting spans back under the right parent (see
    :meth:`Tracer.graft`).

    Attributes:
        trace_id: The originating tracer's run id.
        parent_id: Span id the remote spans should hang under
            (``None`` = top level).
        depth: Nesting depth of the graft point (remote depths are
            offset by this).
    """

    trace_id: str
    parent_id: int | None = None
    depth: int = 0

    def to_wire(self) -> dict[str, Any]:
        """Compact JSON-safe form carried in protocol messages."""
        return {
            "run": self.trace_id,
            "parent": self.parent_id,
            "depth": self.depth,
        }

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "TraceContext":
        """Inverse of :meth:`to_wire` (tolerates missing optionals)."""
        return cls(
            trace_id=str(payload.get("run", "")),
            parent_id=payload.get("parent"),
            depth=int(payload.get("depth", 0)),
        )


def propagation_context() -> "TraceContext | None":
    """Trace context to attach to outgoing cross-process work.

    Returns ``None`` unless fine-grained tracing is enabled *and* a
    tracer is active on this thread — the same gate as :func:`span` —
    so protocols that attach the result to their messages add zero
    bytes when telemetry is off.
    """
    if not _TRACING:
        return None
    tracer = current_tracer()
    if tracer is None:
        return None
    return tracer.propagation_context()


@dataclass
class SpanRecord:
    """One closed span.

    Attributes:
        name: Dotted span name (e.g. ``"core_points"``,
            ``"sparklite.shuffle"``).
        span_id: Id unique within the owning tracer.
        parent_id: Id of the enclosing span, ``None`` at the top level.
        depth: Nesting depth (0 = top level).
        start_s: Start offset in seconds from the tracer's epoch.
        duration_s: Wall-clock duration in seconds.
        thread: Name of the thread the span ran on.
        pid: OS process id the span ran in.
        attrs: Free-form attributes attached via ``span.set(...)`` or
            the ``span(...)`` keyword arguments.  JSON-safe builtins.
        error: Exception type name if the body raised, else ``None``.
        alloc_bytes: Net ``tracemalloc`` allocation delta across the
            span (profiling mode only, else ``None``).
    """

    name: str
    span_id: int
    parent_id: int | None
    depth: int
    start_s: float
    duration_s: float = 0.0
    thread: str = ""
    pid: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    alloc_bytes: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-builtins form used by the run-record schema."""
        out: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "thread": self.thread,
            "pid": self.pid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.alloc_bytes is not None:
            out["alloc_bytes"] = self.alloc_bytes
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            depth=payload.get("depth", 0),
            start_s=payload.get("start_s", 0.0),
            duration_s=payload.get("duration_s", 0.0),
            thread=payload.get("thread", ""),
            pid=payload.get("pid", 0),
            attrs=dict(payload.get("attrs", {})),
            error=payload.get("error"),
            alloc_bytes=payload.get("alloc_bytes"),
        )


class Span:
    """Live handle yielded by :meth:`Tracer.span`; set attrs on it."""

    __slots__ = ("_record",)

    def __init__(self, record: SpanRecord) -> None:
        self._record = record

    @property
    def name(self) -> str:
        return self._record.name

    def set(self, key: str, value: Any) -> None:
        """Attach an attribute to the span (JSON-safe values please)."""
        self._record.attrs[key] = value


class _NoopSpan:
    """Shared, allocation-free stand-in used when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    @property
    def name(self) -> str:
        return ""


NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_record", "_span", "_mem0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._record: SpanRecord | None = None
        self._span: Span | None = None
        self._mem0 = 0

    def __enter__(self) -> Span:
        self._record = self._tracer._open(self._name, self._attrs)
        if self._tracer.profile_memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                self._mem0 = tracemalloc.get_traced_memory()[0]
        self._span = Span(self._record)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self._record is not None
        if exc_type is not None:
            self._record.error = exc_type.__name__
        if self._tracer.profile_memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                self._record.alloc_bytes = (
                    tracemalloc.get_traced_memory()[0] - self._mem0
                )
        self._tracer._close(self._record)
        return False  # propagate any exception


class Tracer:
    """Collects spans for one logical run.

    Args:
        profile_memory: Record per-span ``tracemalloc`` allocation
            deltas (requires ``tracemalloc`` to be tracing; see
            :func:`enable_profiling`).

    Thread-safety: spans opened on different threads nest per-thread
    (each thread keeps its own open-span stack) and append to the same
    record list under a lock.
    """

    def __init__(self, profile_memory: bool | None = None) -> None:
        self.profile_memory = (
            _PROFILING if profile_memory is None else bool(profile_memory)
        )
        self.trace_id = uuid.uuid4().hex[:16]
        self.epoch = time.perf_counter()
        self._spans: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _open(self, name: str, attrs: dict) -> SpanRecord:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = next(self._ids)
        record = SpanRecord(
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            depth=len(stack),
            start_s=time.perf_counter() - self.epoch,
            attrs=dict(attrs),
        )
        stack.append(record)
        return record

    def _close(self, record: SpanRecord) -> None:
        record.duration_s = (
            time.perf_counter() - self.epoch - record.start_s
        )
        record.thread = threading.current_thread().name
        record.pid = os.getpid()
        stack = self._stack()
        # The record is somewhere on this thread's stack (normally the
        # top); remove it even if an inner span leaked open.
        while stack:
            top = stack.pop()
            if top is record:
                break
        with self._lock:
            self._spans.append(record)

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a (nestable) span; use as a context manager."""
        return _SpanContext(self, name, attrs)

    # -- cross-process propagation -------------------------------------

    def propagation_context(self) -> TraceContext:
        """Coordinates of this thread's innermost open span.

        The returned :class:`TraceContext` names the graft point for
        remote spans: the top of the calling thread's open-span stack
        (or the top level when no span is open).
        """
        stack = self._stack()
        top = stack[-1] if stack else None
        return TraceContext(
            trace_id=self.trace_id,
            parent_id=top.span_id if top is not None else None,
            depth=len(stack),
        )

    def graft(
        self,
        spans: Iterable[SpanRecord],
        *,
        parent_id: int | None = None,
        base_depth: int = 0,
        start_offset_s: float = 0.0,
        tags: Mapping[str, Any] | None = None,
    ) -> list[SpanRecord]:
        """Adopt spans recorded by another tracer (usually remotely).

        Every span is re-identified against this tracer's id space;
        remote parent links are remapped, and remote *roots* (parent
        ids that do not resolve within the batch) hang under
        ``parent_id``.  Depths shift by ``base_depth``, start offsets
        by ``start_offset_s`` (the dispatch time relative to this
        tracer's epoch — remote tracers start their clock at task
        start), and ``tags`` (e.g. ``host``/``worker_id`` provenance)
        are merged into every span's attrs.

        Returns the grafted (re-identified) records.
        """
        tags = dict(tags or {})
        batch = list(spans)
        grafted: list[SpanRecord] = []
        with self._lock:
            id_map = {
                remote.span_id: next(self._ids) for remote in batch
            }
            for remote in batch:
                record = SpanRecord(
                    name=remote.name,
                    span_id=id_map[remote.span_id],
                    parent_id=(
                        id_map.get(remote.parent_id, parent_id)
                        if remote.parent_id is not None
                        else parent_id
                    ),
                    depth=base_depth + remote.depth,
                    start_s=start_offset_s + remote.start_s,
                    duration_s=remote.duration_s,
                    thread=remote.thread,
                    pid=remote.pid,
                    attrs={**remote.attrs, **tags},
                    error=remote.error,
                    alloc_bytes=remote.alloc_bytes,
                )
                grafted.append(record)
                self._spans.append(record)
        return grafted

    # -- results -------------------------------------------------------

    def spans(self) -> list[SpanRecord]:
        """Closed spans, in closing order."""
        with self._lock:
            return list(self._spans)

    def phase_durations(self) -> dict[str, float]:
        """Total duration per top-level span name, in first-seen order."""
        out: dict[str, float] = {}
        for record in self.spans():
            if record.depth == 0:
                out[record.name] = out.get(record.name, 0.0) + (
                    record.duration_s
                )
        return out

    # -- activation for fine-grained spans -----------------------------

    def activate(self) -> "_Activation":
        """Make this tracer the target of module-level :func:`span`."""
        return _Activation(self)


class _Activation:
    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        with _STATE_LOCK:
            _ACTIVE_TRACERS.append(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info: object) -> bool:
        with _STATE_LOCK:
            try:
                _ACTIVE_TRACERS.remove(self._tracer)
            except ValueError:
                pass
        return False


def span(name: str, **attrs: Any):
    """Fine-grained span: records only when tracing is enabled.

    With tracing disabled (the default) this returns a shared no-op
    context manager without touching any lock or allocating anything —
    safe to leave in hot paths.
    """
    if not _TRACING:
        return NOOP_SPAN
    tracer = current_tracer()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def iter_tree(
    spans: list[SpanRecord],
) -> Iterator[tuple[int, SpanRecord]]:
    """Yield ``(depth, span)`` in tree (pre-order start-time) order."""
    children: dict[int | None, list[SpanRecord]] = {}
    for record in spans:
        children.setdefault(record.parent_id, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.start_s)

    def walk(parent_id: int | None, depth: int) -> Iterator:
        for record in children.get(parent_id, []):
            yield depth, record
            yield from walk(record.span_id, depth + 1)

    return walk(None, 0)
