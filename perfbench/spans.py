"""The benchmark's own tracing: spans, entry-point lookup, a timing kernel.

Spans are recorded around the benchmark's calls into each layer's
public entry point (the program itself is not instrumented).  Each span
has a name, start, end, parent span and operation id; they stay in
memory and are written out once, when the run ends.

A layer entry point or program counter that a later version of the
program no longer has is reported as missing, never as a crash.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pathlib
import statistics
import time
import tracemalloc

import numpy as np


class SpanRecorder:
    """In-memory span list plus the names of missing entry points."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``."""
        return [
            span_ms(s)
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        ]

    def median_ms(self, name: str) -> float:
        values = self.durations_ms(name)
        return statistics.median(values) if values else 0.0

    def lookup(self, module: str, attribute: str):
        """``module.attribute``, or ``None`` (recorded as missing)."""
        try:
            return getattr(importlib.import_module(module), attribute)
        except (ImportError, AttributeError):
            self.note_missing(f"{module}.{attribute}")
            return None

    def counter(self, stats, name: str):
        """A program counter by name, or ``None`` (recorded as missing)."""
        value = (stats or {}).get(name)
        if value is None:
            self.note_missing(f"counter {name}")
            return None
        return int(value)

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def write(self, path: pathlib.Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spans": self.spans, "missing": self.missing, **extra}
        path.write_text(json.dumps(payload, default=float))


def span_ms(record: dict) -> float:
    """Duration of a closed span, in ms."""
    return (record["end"] - record["start"]) * 1e3


def peak_traced_mb(call) -> float:
    """Peak bytes allocated while ``call()`` runs (tracemalloc), in MB.

    NumPy reports its buffers to tracemalloc, so this is the call's own
    array working set, not the process RSS.
    """
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timing_kernel(base, inner, recorder: SpanRecorder):
    """A ``base`` (``repro.core.kernels.Kernel``) subclass wrapping
    ``inner``: every pair-count call becomes a ``kernel`` span, and the
    wrapper accumulates busy time, pairs tested and pairs found within
    eps."""

    class TimingKernel(base):
        name = inner.name

        def __init__(self) -> None:
            self.busy_ms = 0.0
            self.pairs = 0
            self.hits = 0

        def segmented_pair_counts(
            self, array, members_flat, m_sizes, cands_flat, c_sizes,
            eps_sq, counters, **options,
        ):
            with recorder.span("kernel") as record:
                counts = inner.segmented_pair_counts(
                    array, members_flat, m_sizes, cands_flat, c_sizes,
                    eps_sq, counters, **options,
                )
            self.busy_ms += span_ms(record)
            self.pairs += int(np.dot(
                np.asarray(m_sizes, dtype=np.int64),
                np.asarray(c_sizes, dtype=np.int64),
            ))
            self.hits += int(np.asarray(counts).sum())
            return counts

        def sq_dists(self, targets, candidates):
            return inner.sq_dists(targets, candidates)

    return TimingKernel()
