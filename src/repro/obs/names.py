"""Canonical registry of every metric family the library emits.

Each counter that can appear in a run record, an
:class:`~repro.obs.MetricsRegistry` snapshot, or the telemetry
exposition plane (:mod:`repro.obs.expose`) is declared here with its
kind (``counter`` — monotonically accumulated; ``gauge`` — last-value;
``info`` — non-numeric, excluded from Prometheus text) and a one-line
help string.  The registry serves two purposes:

* the exposition renderer reads ``HELP``/``TYPE`` metadata from it, so
  ``GET /metrics`` output is self-describing;
* :func:`undeclared` lets a test fail the suite when a new counter is
  emitted without being declared, so the exposition surface cannot
  silently drift.

Per-worker counters are namespaced ``worker.<id>.<metric>`` with an
arbitrary worker id in the middle; :func:`canonical` collapses the id
segment so those names resolve to one declared family.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "FAMILIES",
    "canonical",
    "family",
    "is_declared",
    "undeclared",
]

#: Canonical metric name -> ``(kind, help)``.  Kinds: ``counter``,
#: ``gauge``, ``info`` (non-numeric; skipped by the Prometheus text).
FAMILIES: dict[str, tuple[str, str]] = {
    # -- engine.* : per-run detector work counters ---------------------
    "engine.distance_computations": (
        "counter", "point pairs whose exact distance was evaluated"),
    "engine.pruned_cells": (
        "counter", "neighbor cells skipped by geometric pruning"),
    "engine.cells_no_candidates": (
        "counter", "cells settled with no candidate neighbors to test"),
    "engine.cells_settled_core": (
        "counter", "cells settled all-core by the Lemma 1 shortcut"),
    "engine.cells_settled_covered": (
        "counter", "cells settled by covered-cell population counting"),
    "engine.pairs_self_covered": (
        "counter", "same-cell point pairs counted as near via Lemma 1"),
    "engine.pairs_skipped_covered": (
        "counter", "pairs skipped because the cell pair is covered"),
    "engine.pairs_skipped_excluded": (
        "counter", "pairs skipped because the cell pair is excluded"),
    # -- kernel.* : distance-kernel tier -------------------------------
    "kernel.fallback": (
        "counter", "compiled-kernel builds that fell back to NumPy"),
    # -- planner.* / tree.* : cell adjacency planning ------------------
    "planner.cell_pairs_examined": (
        "counter", "cell pairs probed while building adjacency"),
    "tree.nodes": (
        "gauge", "nodes in the grid-tree cell index"),
    "tree.node_visits": (
        "counter", "grid-tree nodes visited during adjacency queries"),
    "tree.subtrees_pruned": (
        "counter", "grid-tree subtrees pruned by bounding-box distance"),
    "tree.leaf_cell_tests": (
        "counter", "leaf cells distance-tested by grid-tree queries"),
    # -- sparklite.* : substrate counters ------------------------------
    "sparklite.tasks_executed": (
        "counter", "partition-level tasks computed"),
    "sparklite.shuffles": (
        "counter", "shuffle stages materialized"),
    "sparklite.records_shuffled": (
        "counter", "records that crossed a shuffle boundary"),
    "sparklite.broadcasts": (
        "counter", "broadcast variables created"),
    "sparklite.collects": (
        "counter", "actions that returned data to the driver"),
    "sparklite.task_retries": (
        "counter", "task attempts re-executed after a TaskFailure"),
    # -- sparklite.net.* : the wire ------------------------------------
    "sparklite.net.bytes_out": (
        "counter", "bytes sent by the net driver"),
    "sparklite.net.bytes_in": (
        "counter", "bytes received by the net driver"),
    "sparklite.net.tasks": (
        "counter", "tasks shipped to remote workers"),
    "sparklite.net.broadcast_bytes_out": (
        "counter", "broadcast replica bytes shipped (once per worker)"),
    "sparklite.net.worker_failures": (
        "counter", "workers declared lost (disconnect or timeout)"),
    "sparklite.net.lineage_reruns": (
        "counter", "in-flight tasks re-run after a worker loss"),
    "sparklite.net.task_seconds": (
        "counter", "cumulative remote task round-trip seconds"),
    "sparklite.net.straggler_suspected": (
        "counter", "straggler suspicions raised by the EWMA detector"),
    # -- incremental.* : exact streaming maintenance -------------------
    "incremental.inserts": (
        "counter", "insert batches accepted by the incremental engine"),
    "incremental.points_inserted": (
        "counter", "points inserted into the incremental engine"),
    "incremental.removes": (
        "counter", "remove calls applied by the incremental engine"),
    "incremental.points_removed": (
        "counter", "points logically deleted from the incremental engine"),
    "incremental.detects": (
        "counter", "detect() refreshes of the incremental result"),
    "incremental.core_cells_recomputed": (
        "counter", "cells whose core status was re-evaluated"),
    "incremental.outlier_cells_recomputed": (
        "counter", "cells whose outlier status was re-evaluated"),
    "incremental.window_points": (
        "gauge", "active (non-removed) points in the incremental engine"),
    "incremental.dirty_cells": (
        "gauge", "cells pending re-evaluation at the last detect"),
    # -- stream.* : live streaming detectors ---------------------------
    "stream.batches": ("counter", "ingest batches accepted"),
    "stream.points_ingested": ("counter", "points ingested into the window"),
    "stream.points_evicted": (
        "counter", "points evicted by the sliding-window policy"),
    "stream.window_points": ("gauge", "active points in the sliding window"),
    "stream.snapshots": ("counter", "point-in-time CoreModel snapshots built"),
    "stream.snapshot_age_s": (
        "gauge", "seconds since the served model was snapshotted"),
    "stream.snapshot_latency_ms": (
        "gauge", "latency of the last snapshot build (ms)"),
    "stream.swaps": ("counter", "snapshots hot-swapped into the service"),
    "stream.ingest_lag_ms": (
        "gauge", "processing latency of the last ingest batch (ms)"),
    "stream.drift": (
        "gauge", "label-change fraction between consecutive snapshots"),
    # -- serve.* : query service ---------------------------------------
    "serve.requests": ("counter", "classify requests accepted"),
    "serve.batches": ("counter", "micro-batches served"),
    "serve.rows_submitted": ("counter", "points submitted for classify"),
    "serve.rows_classified": ("counter", "points classified"),
    "serve.outliers_found": ("counter", "outlier labels returned"),
    "serve.queue_depth": ("gauge", "requests currently queued"),
    "serve.queue_depth_peak": ("gauge", "maximum observed queue depth"),
    "serve.last_batch_rows": ("gauge", "rows in the last served batch"),
    "serve.max_batch_rows": ("gauge", "largest batch served, in rows"),
    "serve.models_registered": ("gauge", "detectors currently registered"),
    "serve.models_evicted": ("counter", "detectors evicted by the LRU"),
    "serve.rejected_overload": (
        "counter", "submits rejected by backpressure"),
    "serve.swap.total": (
        "counter", "model versions hot-swapped into the registry"),
    "serve.swap.reregister": (
        "counter", "register() replacements routed through the swap path"),
    "serve.swap.latency_ms": (
        "gauge", "install latency of the last hot swap (ms)"),
    "serve.swap.latency_max_ms": (
        "gauge", "largest observed hot-swap install latency (ms)"),
    "serve.swap.dims_mismatch": (
        "counter",
        "queued requests failed because a swap changed dimensionality"),
    "serve.versions": ("info", "per-detector installed model versions"),
    "serve.deadline_exceeded": (
        "counter", "requests that missed their deadline"),
    "serve.latency_p50_ms": ("gauge", "p50 request latency (ms)"),
    "serve.latency_p90_ms": ("gauge", "p90 request latency (ms)"),
    "serve.latency_p99_ms": ("gauge", "p99 request latency (ms)"),
    "serve.latency_mean_ms": ("gauge", "mean request latency (ms)"),
    "serve.models": ("info", "registered detector names"),
    # classify counters merged into serve batch records:
    "serve.distance_computations": (
        "counter", "point pairs distance-tested while classifying"),
    "serve.cells_settled_core": (
        "counter", "query cells settled via the core-cell shortcut"),
    "serve.cells_no_candidates": (
        "counter", "query cells with no candidate core neighbors"),
    # -- worker.* : telemetry harvested from remote workers ------------
    "worker.tasks": ("counter", "tasks executed on workers (total)"),
    "worker.records_in": (
        "counter", "records decoded by workers (total)"),
    "worker.records_out": (
        "counter", "records produced by workers (total)"),
    "worker.bytes_in": (
        "counter", "task input frame bytes decoded by workers (total)"),
    "worker.bytes_out": (
        "counter", "result frame bytes encoded by workers (total)"),
    "worker.task_seconds": (
        "counter", "cumulative in-worker task seconds (total)"),
    # -- net_worker.* : the driver's live view of each worker ----------
    "net_worker.alive": ("gauge", "1 while the worker is registered"),
    "net_worker.inflight": ("gauge", "tasks in flight on the worker"),
    "net_worker.straggler": (
        "gauge", "1 while the worker is a suspected straggler"),
    "net_worker.tasks": (
        "counter", "tasks the driver completed on the worker"),
    "net_worker.task_seconds": (
        "counter", "round-trip seconds of the worker's tasks"),
    "net_worker.ewma_ms": (
        "gauge", "EWMA of the worker's task round-trip (ms)"),
    "net_worker.bytes_out": (
        "counter", "bytes the driver sent to the worker"),
    "net_worker.bytes_in": (
        "counter", "bytes the driver received from the worker"),
    "worker.<id>.tasks": ("counter", "tasks executed on one worker"),
    "worker.<id>.records_in": (
        "counter", "records decoded by one worker"),
    "worker.<id>.records_out": (
        "counter", "records produced by one worker"),
    "worker.<id>.bytes_in": (
        "counter", "task input frame bytes decoded by one worker"),
    "worker.<id>.bytes_out": (
        "counter", "result frame bytes encoded by one worker"),
    "worker.<id>.task_seconds": (
        "counter", "cumulative in-worker task seconds on one worker"),
}


def canonical(name: str) -> str:
    """Collapse instance segments to the declared family name.

    ``worker.loopback-0.tasks`` -> ``worker.<id>.tasks``; everything
    else is already canonical.
    """
    parts = name.split(".")
    if parts[0] == "worker" and len(parts) >= 3:
        return "worker.<id>." + ".".join(parts[2:])
    return name


def family(name: str) -> tuple[str, str]:
    """``(kind, help)`` for a metric name (canonicalized first).

    Unknown names resolve to ``("gauge", "undeclared metric")`` so the
    exposition renderer always has metadata; declare real families in
    :data:`FAMILIES` instead of relying on this fallback.
    """
    return FAMILIES.get(canonical(name), ("gauge", "undeclared metric"))


def is_declared(name: str) -> bool:
    """Whether ``name`` resolves to a declared family."""
    return canonical(name) in FAMILIES


def undeclared(names: Iterable[str]) -> list[str]:
    """The subset of ``names`` not covered by :data:`FAMILIES`.

    Feed this every counter name a test run produced; a non-empty
    result means someone added a metric without declaring it.
    """
    return sorted({name for name in names if not is_declared(name)})
