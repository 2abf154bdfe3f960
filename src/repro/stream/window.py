"""Sliding-window eviction policies for live streaming detectors.

A :class:`LiveDetector <repro.stream.live.LiveDetector>` owns an
:class:`~repro.core.incremental.IncrementalDBSCOUT` and applies one of
these policies after every ingest batch to decide which of the
currently active points fall out of the window.  Two shapes cover the
replay patterns of the streaming examples:

* :class:`CountWindow` — keep the most recent ``max_points`` points
  (the GPS-feed replay shape: a bounded in-memory map of the latest
  fixes);
* :class:`TimeWindow` — keep points whose ingest timestamp is within
  ``horizon_s`` of the newest one (sensor feeds where staleness, not
  volume, bounds relevance);
* :class:`KeepAll` — never evict (pure growth, the historical-base
  case).

Policies are pure decision functions over the window bookkeeping the
detector maintains (insertion ids and per-point timestamps, as arrays
in arrival order), so they are trivially testable and new shapes
(e.g. spatial eviction) slot in by implementing
:meth:`EvictionPolicy.select_evictions`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "EvictionPolicy",
    "CountWindow",
    "TimeWindow",
    "KeepAll",
    "resolve_policy",
]


class EvictionPolicy(ABC):
    """Decides which active points leave the window after an ingest."""

    @abstractmethod
    def select_evictions(
        self,
        active_indices: Sequence[int],
        timestamps: np.ndarray,
        now: float,
    ) -> Sequence[int]:
        """Indices (detector insertion ids) to evict.

        Args:
            active_indices: Insertion indices of the active points, in
                insertion (arrival) order — oldest first.  The live
                detector passes an int64 array.
            timestamps: Ingest timestamp per active point, parallel to
                ``active_indices``.
            now: The newest ingest timestamp (the stream clock).

        Returns:
            The subset of ``active_indices`` to remove, oldest first
            (a list or an array).
        """

    def describe(self) -> str:
        """Human-readable policy summary for status surfaces."""
        return type(self).__name__


class CountWindow(EvictionPolicy):
    """Keep only the most recent ``max_points`` points."""

    def __init__(self, max_points: int) -> None:
        if max_points < 1:
            raise ParameterError(
                f"max_points must be >= 1, got {max_points}"
            )
        self.max_points = int(max_points)

    def select_evictions(
        self,
        active_indices: Sequence[int],
        timestamps: np.ndarray,
        now: float,
    ) -> Sequence[int]:
        excess = len(active_indices) - self.max_points
        if excess <= 0:
            return []
        return active_indices[:excess]

    def describe(self) -> str:
        return f"count<={self.max_points}"


class TimeWindow(EvictionPolicy):
    """Keep points whose timestamp is within ``horizon_s`` of ``now``.

    The boundary is inclusive: a point stamped exactly ``now -
    horizon_s`` stays — matching the library's inclusive ``<= eps``
    convention everywhere a threshold appears.
    """

    def __init__(self, horizon_s: float) -> None:
        if not horizon_s > 0:
            raise ParameterError(
                f"horizon_s must be > 0, got {horizon_s}"
            )
        self.horizon_s = float(horizon_s)

    def select_evictions(
        self,
        active_indices: Sequence[int],
        timestamps: np.ndarray,
        now: float,
    ) -> Sequence[int]:
        cutoff = now - self.horizon_s
        expired = np.asarray(timestamps, dtype=np.float64) < cutoff
        return np.asarray(active_indices, dtype=np.int64)[expired]

    def describe(self) -> str:
        return f"age<={self.horizon_s:g}s"


class KeepAll(EvictionPolicy):
    """Never evict: the window is the whole stream so far."""

    def select_evictions(
        self,
        active_indices: Sequence[int],
        timestamps: np.ndarray,
        now: float,
    ) -> Sequence[int]:
        return []

    def describe(self) -> str:
        return "keep-all"


def resolve_policy(policy) -> EvictionPolicy:
    """Normalize a policy argument.

    Accepts an :class:`EvictionPolicy`, ``None`` (→ :class:`KeepAll`),
    or an integer (→ :class:`CountWindow` of that size — the common
    shorthand on the CLI and in the examples).
    """
    if policy is None:
        return KeepAll()
    if isinstance(policy, EvictionPolicy):
        return policy
    if isinstance(policy, (int, np.integer)) and not isinstance(
        policy, bool
    ):
        return CountWindow(int(policy))
    raise ParameterError(
        "window policy must be an EvictionPolicy, a max-point count, "
        f"or None; got {policy!r}"
    )
