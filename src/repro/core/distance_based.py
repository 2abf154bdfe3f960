"""Distance-based (Knorr-Ng) outliers on the DBSCOUT grid.

Extension beyond the paper: the epsilon-cell grid and neighbor stencil
that make DBSCOUT linear also accelerate the classic *distance-based*
outlier definition of Knorr & Ng (VLDB 1998), which the paper cites as
related work:

    A point ``p`` is a DB(fraction, radius)-outlier if at least
    ``fraction`` of the dataset lies strictly farther than ``radius``
    from ``p`` — equivalently, fewer than ``(1 - fraction) * n``
    points (self included) lie within ``radius``.

That is DBSCOUT's core test: a DB(fraction, radius)-outlier is exactly
a non-core point at ``eps = radius`` and ``min_pts = threshold(n)``.
So the detector runs the vectorized engine's core round on a grid with
``eps = radius``, where

* any cell holding at least the threshold is entirely non-outlier
  (the Lemma 1 argument);
* any cell whose neighborhood holds fewer than the threshold is
  entirely outlier (the pruning argument);
* only the remaining cells need actual distance counting, under the
  kernel contract's float rules.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.grid import Grid, validate_points
from repro.core.kernels import resolve_kernel
from repro.core.neighbors import NeighborStencil
from repro.core.vectorized import VectorizedEngine, _CellAdjacency
from repro.exceptions import ParameterError
from repro.obs import RunRecorder
from repro.types import DetectionResult

__all__ = ["DistanceBasedDetector"]


class DistanceBasedDetector:
    """DB(fraction, radius) outlier detection with grid acceleration.

    Args:
        radius: Neighborhood radius ``D``.
        fraction: Required fraction of far-away points in (0, 1);
            typical values are close to 1 (e.g. 0.95).
    """

    def __init__(self, radius: float, fraction: float) -> None:
        if not (isinstance(radius, (int, float)) and math.isfinite(radius)):
            raise ParameterError(f"radius must be finite, got {radius!r}")
        if radius <= 0:
            raise ParameterError(f"radius must be positive, got {radius}")
        if not 0.0 < fraction < 1.0:
            raise ParameterError(
                f"fraction must be in (0, 1), got {fraction}"
            )
        self.radius = float(radius)
        self.fraction = float(fraction)

    def threshold(self, n_points: int) -> int:
        """Minimum within-radius count (self included) of a non-outlier."""
        return int(math.floor((1.0 - self.fraction) * n_points)) + 1

    def detect(self, points: np.ndarray) -> DetectionResult:
        """Flag every DB(fraction, radius)-outlier, exactly."""
        array = validate_points(points)
        n_points = array.shape[0]
        if n_points == 0:
            return DetectionResult(
                n_points=0, outlier_mask=np.zeros(0, dtype=bool)
            )
        threshold = self.threshold(n_points)
        recorder = RunRecorder(
            engine="distance_based",
            params={"radius": self.radius, "fraction": self.fraction},
            context={
                "algorithm": "knorr_ng",
                "radius": self.radius,
                "fraction": self.fraction,
                "threshold": threshold,
            },
        )
        counters = {"distance_computations": 0, "pruned_cells": 0}
        with recorder.activate():
            with recorder.span("grid"):
                grid = Grid(array, self.radius)
                stencil = NeighborStencil(grid.n_dims)
                adjacency = _CellAdjacency(grid, stencil)

            with recorder.span("outliers"):
                dense = grid.counts >= threshold
                core = VectorizedEngine._find_core_points(
                    array, grid, adjacency, dense, self.radius, threshold,
                    counters, kernel=resolve_kernel("auto"),
                )
                outlier_mask = ~core
        recorder.add_context(
            n_cells=grid.n_cells,
            cells_counted=int((~dense).sum()) - counters["pruned_cells"],
        )
        record = recorder.finish(n_points, n_dims=array.shape[1])
        return DetectionResult(
            n_points=n_points,
            outlier_mask=outlier_mask,
            timings=record.timing_breakdown(),
            stats=record.flat_stats(),
            record=record,
        )
