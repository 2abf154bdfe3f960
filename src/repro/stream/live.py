"""Live detectors: exact sliding-window maintenance + snapshot export.

:class:`LiveDetector` is the streaming counterpart of a fitted
detector.  It owns an
:class:`~repro.core.incremental.IncrementalDBSCOUT`, accepts
``ingest``/``evict`` batches, applies a pluggable sliding-window
:class:`~repro.stream.window.EvictionPolicy`, and exports
point-in-time :class:`~repro.core.classify.CoreModel` snapshots.

**Consistency contract.**  A snapshot is an *exact batch fit over the
currently-active window*: the core-point set the snapshot serves is
bit-identical to what ``DBSCOUT.fit`` would compute on exactly the
points currently inside the window (the incremental engine re-runs the
batch engine's core and outlier rounds over the two-ring of the cells
each insert/evict disturbed, which is exact by the locality of
Lemmas 1-2).  Queries classified against a snapshot therefore never see
a half updated state: each installed model version is one window,
frozen.

**Memory bound.**  The window is kept as arrays (engine ids, ingest
timestamps, last-snapshot labels).  Evicted points stay in the engine
only until they outnumber the active ones; then the engine is compacted
to just the window, so it holds at most twice the window plus one
ingest batch, however long the stream runs.

Every operation updates ``stream.*`` counters on :attr:`metrics`
(declared in :mod:`repro.obs.names`), so a live detector is scrapeable
through the same exposition plane as everything else.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.classify import CoreModel
from repro.core.grid import validate_points
from repro.core.incremental import IncrementalDBSCOUT
from repro.exceptions import ParameterError
from repro.obs import MetricsRegistry
from repro.stream.window import EvictionPolicy, resolve_policy
from repro.types import DetectionResult

__all__ = ["LiveDetector", "IngestOutcome", "StreamSnapshot"]


@dataclass(frozen=True)
class IngestOutcome:
    """Per-batch facts returned by :meth:`LiveDetector.ingest`."""

    accepted: int
    evicted: int
    window_points: int
    lag_s: float


@dataclass(frozen=True)
class StreamSnapshot:
    """One exported point-in-time model plus its provenance."""

    model: CoreModel
    sequence: int
    window_points: int
    built_at: float
    latency_s: float
    drift: float


class LiveDetector:
    """Exact outlier detection over a sliding window of a stream.

    Args:
        eps: Neighborhood radius.
        min_pts: Density threshold (self included).
        window: Sliding-window eviction policy — an
            :class:`~repro.stream.window.EvictionPolicy`, an integer
            (count window of that size), or ``None`` (keep everything).
        kernel: Distance-kernel tier forwarded to the incremental
            engine; labels are bit-identical for every choice.
        name: Detector name used in snapshot metadata.

    Thread safety: every public method takes the detector lock, so one
    ingest path and one snapshot path may run from different threads
    (the server's event loop and a coordinator timer, say) without
    corrupting the window bookkeeping.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        window: EvictionPolicy | int | None = None,
        kernel: str | None = "auto",
        name: str = "live",
    ) -> None:
        self._engine = IncrementalDBSCOUT(eps, min_pts, kernel=kernel)
        self.policy = resolve_policy(window)
        self.name = str(name)
        self.metrics = MetricsRegistry()
        self._lock = threading.RLock()
        # The window, oldest first: engine ids, ingest timestamps, and
        # each point's outlier label in the last snapshot (-1: none).
        self._ids = np.empty(0, dtype=np.int64)
        self._stamps = np.empty(0, dtype=np.float64)
        self._labels = np.empty(0, dtype=np.int8)
        self._stream_clock = float("-inf")
        self._snapshots = 0
        self._last_snapshot_at: float | None = None

    # -- basic facts ---------------------------------------------------

    @property
    def eps(self) -> float:
        return self._engine.eps

    @property
    def min_pts(self) -> int:
        return self._engine.min_pts

    @property
    def window_points(self) -> int:
        """Points currently inside the active window."""
        with self._lock:
            return int(self._ids.size)

    @property
    def n_snapshots(self) -> int:
        """Snapshots exported so far."""
        with self._lock:
            return self._snapshots

    def active_points(self) -> np.ndarray:
        """The active window's points, oldest first (copy)."""
        with self._lock:
            if not self._ids.size:
                n_dims = self._engine.n_dims or 0
                return np.empty((0, n_dims))
            return self._engine._buffer[self._ids]

    # -- ingest / evict ------------------------------------------------

    def ingest(
        self,
        points: np.ndarray,
        timestamps: np.ndarray | float | None = None,
    ) -> IngestOutcome:
        """Insert a batch, then apply the window policy.

        Args:
            points: ``(n, d)`` batch of new points.
            timestamps: Optional ingest timestamps — an ``(n,)`` array,
                one scalar for the whole batch, or ``None`` (wall
                clock).  The stream clock is the maximum timestamp seen
                so far; time-window eviction measures age against it.
        """
        started = time.perf_counter()
        batch = validate_points(points) if np.asarray(points).size else (
            np.asarray(points, dtype=np.float64)
        )
        n_new = int(batch.shape[0]) if batch.ndim == 2 else 0
        stamps = self._normalize_stamps(timestamps, n_new)
        with self._lock:
            if n_new:
                start = self._engine.n_points
                self._engine.insert(batch)
                self._ids = np.concatenate(
                    [self._ids, np.arange(start, start + n_new)]
                )
                self._stamps = np.concatenate([self._stamps, stamps])
                self._labels = np.concatenate(
                    [self._labels, np.full(n_new, -1, dtype=np.int8)]
                )
                self._stream_clock = max(
                    self._stream_clock, float(stamps.max())
                )
            evicted = self._apply_policy()
            window = int(self._ids.size)
        lag_s = time.perf_counter() - started
        self.metrics.increment("stream.batches")
        self.metrics.increment("stream.points_ingested", n_new)
        if evicted:
            self.metrics.increment("stream.points_evicted", evicted)
        self.metrics.set("stream.window_points", window)
        self.metrics.set("stream.ingest_lag_ms", lag_s * 1e3)
        return IngestOutcome(
            accepted=n_new,
            evicted=evicted,
            window_points=window,
            lag_s=lag_s,
        )

    def evict(
        self,
        count: int | None = None,
        older_than: float | None = None,
    ) -> int:
        """Manually evict points; returns how many left the window.

        Args:
            count: Evict the ``count`` oldest points.
            older_than: Evict points stamped strictly before this
                stream timestamp.

        Exactly one of the two must be given.
        """
        if (count is None) == (older_than is None):
            raise ParameterError(
                "evict needs exactly one of count= or older_than="
            )
        with self._lock:
            if count is not None:
                if count < 0:
                    raise ParameterError(
                        f"count must be >= 0, got {count}"
                    )
                gone = np.arange(self._ids.size) < int(count)
            else:
                gone = self._stamps < float(older_than)
            evicted = self._drop(gone)
            window = int(self._ids.size)
        if evicted:
            self.metrics.increment("stream.points_evicted", evicted)
        self.metrics.set("stream.window_points", window)
        return evicted

    def _normalize_stamps(self, timestamps, n_new: int) -> np.ndarray:
        if n_new == 0:
            return np.empty(0, dtype=np.float64)
        if timestamps is None:
            return np.full(n_new, time.time())
        array = np.atleast_1d(np.asarray(timestamps, dtype=np.float64))
        if array.size == 1:
            return np.full(n_new, array[0])
        if array.shape != (n_new,):
            raise ParameterError(
                f"timestamps must be scalar or shape ({n_new},), "
                f"got {array.shape}"
            )
        return array

    def _apply_policy(self) -> int:
        victims = self.policy.select_evictions(
            self._ids, self._stamps, self._stream_clock
        )
        return self._drop(np.isin(self._ids, victims))

    def _drop(self, gone: np.ndarray) -> int:
        """Evict the window positions where ``gone`` holds; returns how
        many left."""
        n_gone = int(np.count_nonzero(gone))
        if not n_gone:
            return 0
        self._engine.remove(self._ids[gone])
        keep = ~gone
        self._ids = self._ids[keep]
        self._stamps = self._stamps[keep]
        self._labels = self._labels[keep]
        engine = self._engine
        if engine.n_points - engine.n_active > engine.n_active:
            # Evicted points outnumber the window: keep only the window,
            # renumbered in arrival order.
            engine._compact()
            self._ids = np.arange(self._ids.size)
        return n_gone

    # -- results / snapshots -------------------------------------------

    def result(self) -> DetectionResult:
        """Exact labels over the active window, oldest first.

        Equivalent to a batch fit over exactly the active points (the
        consistency contract); only the dirty cells' two-ring is
        re-detected.
        """
        with self._lock:
            full = self._engine.detect()
            return DetectionResult(
                n_points=int(self._ids.size),
                outlier_mask=full.outlier_mask[self._ids],
                core_mask=full.core_mask[self._ids],
                timings=full.timings,
                stats=full.stats,
                record=full.record,
            )

    def drift_since_snapshot(self) -> float:
        """Fraction of surviving window labels changed since the last
        snapshot (1.0 before any snapshot, 0.0 for an empty overlap)."""
        with self._lock:
            if not (self._labels >= 0).any():
                return 1.0
            full = self._engine.detect()
            return self._measure_drift(full.outlier_mask[self._ids])

    def snapshot(self) -> StreamSnapshot:
        """Export the current window as a frozen, servable CoreModel.

        The snapshot is an exact batch fit over the active window: the
        model's core points are precisely the window's core points at
        this instant, so classify against it is bit-consistent with
        ``DBSCOUT.fit`` on the same points.
        """
        started = time.perf_counter()
        with self._lock:
            window = self.result()
            points = self.active_points()
            drift = self._measure_drift(window.outlier_mask)
            model = CoreModel.from_fit(
                points,
                window,
                self.eps,
                self.min_pts,
                engine="incremental",
                detector=self.name,
                window_policy=self.policy.describe(),
                snapshot_sequence=self._snapshots + 1,
            ) if points.shape[0] else self._empty_model()
            self._snapshots += 1
            sequence = self._snapshots
            self._labels = window.outlier_mask.astype(np.int8)
            self._last_snapshot_at = time.monotonic()
            n_window = int(self._ids.size)
        latency_s = time.perf_counter() - started
        self.metrics.increment("stream.snapshots")
        self.metrics.set("stream.snapshot_latency_ms", latency_s * 1e3)
        self.metrics.set("stream.snapshot_age_s", 0.0)
        self.metrics.set("stream.drift", drift)
        return StreamSnapshot(
            model=model,
            sequence=sequence,
            window_points=n_window,
            built_at=time.time(),
            latency_s=latency_s,
            drift=drift,
        )

    def _measure_drift(self, outliers: np.ndarray) -> float:
        """Share of the window's snapshot-labelled points whose outlier
        label differs in ``outliers`` (parallel to the window)."""
        labelled = self._labels >= 0
        n_labelled = int(np.count_nonzero(labelled))
        if not n_labelled:
            return 1.0 if self._snapshots == 0 else 0.0
        changed = outliers[labelled] != self._labels[labelled].astype(bool)
        return int(np.count_nonzero(changed)) / n_labelled

    def _empty_model(self) -> CoreModel:
        n_dims = self._engine.n_dims or 1
        return CoreModel(
            eps=self.eps,
            min_pts=self.min_pts,
            n_dims=n_dims,
            core_points=np.empty((0, n_dims)),
            core_cells=np.empty((0, n_dims), dtype=np.int64),
            core_starts=np.zeros(1, dtype=np.int64),
            n_train=0,
            engine="incremental",
            metadata={"detector": self.name},
        )

    def snapshot_age_s(self) -> float | None:
        """Seconds since the last snapshot (``None`` before the first).

        Also refreshes the ``stream.snapshot_age_s`` gauge, so polling
        status keeps the exposition plane current.
        """
        with self._lock:
            if self._last_snapshot_at is None:
                return None
            age = time.monotonic() - self._last_snapshot_at
        self.metrics.set("stream.snapshot_age_s", age)
        return age

    def telemetry(self) -> dict[str, Any]:
        """Numeric ``stream.*``/``incremental.*`` counters, merged."""
        self.snapshot_age_s()
        counters = self.metrics.snapshot()
        counters.update(self._engine.metrics.snapshot())
        return counters

    def __repr__(self) -> str:
        return (
            f"LiveDetector(name={self.name!r}, eps={self.eps}, "
            f"min_pts={self.min_pts}, window={self.policy.describe()}, "
            f"points={self.window_points}, snapshots={self.n_snapshots})"
        )
