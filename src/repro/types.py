"""Shared result types for the DBSCOUT reproduction library.

The central type is :class:`DetectionResult`, returned by every outlier
detector in the library (DBSCOUT itself and every baseline) so that the
metrics and experiment harnesses can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.obs.metrics import to_builtin

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.record import RunRecord

__all__ = [
    "DetectionResult",
    "TimingBreakdown",
]


@dataclass(frozen=True)
class TimingBreakdown:
    """Wall-clock timing of each named phase of a detector run.

    Attributes:
        phases: Mapping from phase name (e.g. ``"grid"``,
            ``"core_points"``) to elapsed seconds.
    """

    phases: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def from_spans(cls, spans) -> "TimingBreakdown":
        """Build from a list of span dicts or ``SpanRecord`` objects.

        Top-level spans (depth 0) become phases; repeated names sum.
        This is how engine timings become views over the run record.
        """
        phases: dict[str, float] = {}
        for span in spans:
            if isinstance(span, Mapping):
                depth = span.get("depth", 0)
                name = span["name"]
                duration = span.get("duration_s", 0.0)
            else:
                depth, name, duration = (
                    span.depth, span.name, span.duration_s
                )
            if depth == 0:
                phases[name] = phases.get(name, 0.0) + float(duration)
        return cls(phases)

    @property
    def total(self) -> float:
        """Total elapsed seconds across all phases."""
        return float(sum(self.phases.values()))

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in self.phases.items())
        return f"TimingBreakdown({parts}, total={self.total:.4f}s)"


@dataclass(frozen=True)
class DetectionResult:
    """The outcome of running an outlier detector on a dataset.

    Attributes:
        n_points: Number of input points.
        outlier_mask: Boolean array of shape ``(n_points,)``; ``True``
            marks an outlier.
        core_mask: Boolean array of shape ``(n_points,)`` marking core
            points, when the detector defines them (density-based
            detectors); otherwise ``None``.
        scores: Optional per-point anomaly scores (higher = more
            anomalous) for score-based detectors such as LOF/IF/OC-SVM.
        timings: Optional per-phase wall-clock breakdown.
        record: Optional structured run record
            (:class:`repro.obs.RunRecord`) capturing spans, namespaced
            counters, memory, and library versions for this run; the
            engines populate it and derive ``timings``/``stats`` from
            it, so those fields are views over the record.
        stats: Free-form detector statistics (cell counts, shuffle
            volumes, ...), useful for experiments and debugging.
            Values are coerced to JSON-safe builtins at construction.
            The vectorized engine reports, among others:

            * ``distance_computations`` — pairwise distances actually
              evaluated (the paper's per-tuple work budget);
            * ``pruned_cells`` — cells skipped because their whole
              neighborhood holds fewer than ``min_pts`` points;
            * ``pairs_skipped_covered`` — member/candidate pairs
              resolved by fully-covered cell geometry (bounding-box
              max distance ``<= eps``) without a distance computation;
            * ``pairs_skipped_excluded`` — pairs dropped because the
              bounding-box min distance exceeds ``eps``;
            * ``cells_settled_covered`` — work cells settled by their
              covered neighbor cells alone (``min_pts`` covered
              points in the core round, one covered core point in the
              outlier round);
            * ``box_tests.<round>`` / ``pair_density.<round>`` —
              whether the ``core_points`` and ``outliers`` rounds
              box-tested their cell pairs, and the member x candidate
              point pairs per non-self cell pair that decided it (the
              four counters above stay zero when no round box-tests);
            * ``kernel`` / ``cell_planner`` — the distance kernel and
              the adjacency planner that ran.
    """

    n_points: int
    outlier_mask: np.ndarray
    core_mask: np.ndarray | None = None
    scores: np.ndarray | None = None
    timings: TimingBreakdown | None = None
    stats: Mapping[str, Any] = field(default_factory=dict)
    record: "RunRecord | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "stats", to_builtin(dict(self.stats), finite=True)
        )
        mask = np.asarray(self.outlier_mask, dtype=bool)
        if mask.shape != (self.n_points,):
            raise ValueError(
                f"outlier_mask has shape {mask.shape}, "
                f"expected ({self.n_points},)"
            )
        object.__setattr__(self, "outlier_mask", mask)
        if self.core_mask is not None:
            core = np.asarray(self.core_mask, dtype=bool)
            if core.shape != (self.n_points,):
                raise ValueError(
                    f"core_mask has shape {core.shape}, "
                    f"expected ({self.n_points},)"
                )
            object.__setattr__(self, "core_mask", core)

    @property
    def outlier_indices(self) -> np.ndarray:
        """Indices of the detected outliers, ascending."""
        return np.flatnonzero(self.outlier_mask)

    @property
    def n_outliers(self) -> int:
        """Number of detected outliers."""
        return int(self.outlier_mask.sum())

    @property
    def n_core_points(self) -> int:
        """Number of core points (0 if the detector has no such notion)."""
        if self.core_mask is None:
            return 0
        return int(self.core_mask.sum())

    def labels(self) -> np.ndarray:
        """Return sklearn-style labels: 1 for outliers, 0 for inliers."""
        return self.outlier_mask.astype(np.int64)
