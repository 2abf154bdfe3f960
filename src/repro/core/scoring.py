"""Continuous outlierness scores on top of DBSCOUT's machinery.

DBSCOUT's verdict is binary (Definition 3).  For ranking evaluations
and triage UIs a continuous score helps; the natural one under the
same semantics is the **nearest-core distance**:

* core points score ``0.0``;
* any other point scores its distance to the nearest core point;
* points with no core point in their cell neighborhood score ``inf``
  (they are outliers at *every* radius up to the stencil's reach).

Thresholding recovers the binary rule up to rounding: a point whose
score exceeds ``eps`` is a Definition-3 outlier and one whose score is
below ``eps`` is not, but a score may round onto ``eps`` (a nearest
core point one ulp beyond ``eps**2`` gets a square root of exactly
``eps``).  :func:`detect_with_scores` therefore takes its masks from
the detector's own rounds, not from the scores.

After the vectorized engine's core round, one plan of that engine
(:func:`repro.core.vectorized._plan_cell_jobs`) pairs the members of
every cell holding a non-core point with the core points of its
neighboring core cells, and the NumPy kernel's batch loop takes each
member's least squared distance in the kernel's accumulation order
(:func:`repro.core.kernels.numpy_kernel.segmented_min_sq_dist`).  The
work stays linear, and a score is ``sqrt`` of exactly the squared
distance the kernel compares with ``eps**2``.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import Grid, validate_points
from repro.core.kernels.numpy_kernel import segmented_min_sq_dist
from repro.core.neighbors import NeighborStencil
from repro.core.validation import validate_parameters
from repro.core.vectorized import (
    VectorizedEngine,
    _CellAdjacency,
    _plan_cell_jobs,
)
from repro.obs import RunRecorder
from repro.types import DetectionResult

__all__ = ["nearest_core_distance", "detect_with_scores"]


def nearest_core_distance(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    *,
    recorder: RunRecorder | None = None,
) -> np.ndarray:
    """Per-point outlierness score under DBSCOUT semantics.

    Args:
        points: ``(n, d)`` dataset.
        eps: Neighborhood radius (defines core points and the search
            stencil).
        min_pts: Density threshold.
        recorder: Optional :class:`repro.obs.RunRecorder` that receives
            the phase spans (``grid``/``core_points``/``scores``) and
            the work counters of this computation.

    Returns:
        ``(n,)`` float array: 0 for core points, the distance to the
        nearest core point otherwise, ``inf`` when no core point lies
        within the cell neighborhood.
    """
    if recorder is None:
        recorder = RunRecorder(engine="scores")
    scores, _, _ = _score(points, eps, min_pts, recorder, outliers=False)
    return scores


def _score(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    recorder: RunRecorder,
    outliers: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(scores, core_mask, outlier_mask)`` of ``points``.

    The core mask comes from the vectorized engine's core round.  With
    ``outliers``, its outlier round runs on the same grid and adjacency
    in an ``outliers`` span; else the outlier mask is ``None``.
    """
    array = validate_points(points)
    eps, min_pts = validate_parameters(eps, min_pts)
    n_points = array.shape[0]
    if n_points == 0:
        empty = np.zeros(0, dtype=bool)
        return np.zeros(0, dtype=np.float64), empty, empty
    outlier_mask = None
    with recorder.activate():
        with recorder.span("grid"):
            grid = Grid(array, eps)
            stencil = NeighborStencil(grid.n_dims)
            adjacency = _CellAdjacency(grid, stencil)
            dense_cells = grid.counts >= min_pts
        counters = {"distance_computations": 0, "pruned_cells": 0}
        with recorder.span("core_points"):
            core_mask = VectorizedEngine._find_core_points(
                array, grid, adjacency, dense_cells, eps, min_pts, counters
            )
        with recorder.span("scores"):
            cell_has_core = VectorizedEngine._core_cell_map(
                grid, dense_cells, core_mask
            )
            has_non_core = np.zeros(grid.n_cells, dtype=bool)
            has_non_core[grid.point_cell[~core_mask]] = True
            work = np.flatnonzero(has_non_core)
            # No self seeding and no box tests: a member's own cell is a
            # candidate cell when it is core.  The pairs are not counted.
            members_flat, m_sizes, cands_flat, c_sizes, _, _ = (
                _plan_cell_jobs(
                    grid, work, adjacency.rows(work), cell_has_core,
                    core_mask, None, eps * eps, {},
                )
            )
            scores = np.full(n_points, np.inf, dtype=np.float64)
            scores[members_flat] = np.sqrt(
                segmented_min_sq_dist(
                    array, members_flat, m_sizes, cands_flat, c_sizes
                )
            )
            scores[core_mask] = 0.0
        if outliers:
            with recorder.span("outliers"):
                outlier_mask = VectorizedEngine._find_outliers(
                    array, grid, adjacency, cell_has_core, core_mask, eps,
                    counters,
                )
    recorder.metrics.merge(counters, namespace="engine")
    recorder.add_context(n_cells=grid.n_cells)
    return scores, core_mask, outlier_mask


def detect_with_scores(
    points: np.ndarray, eps: float, min_pts: int
) -> DetectionResult:
    """DBSCOUT detection with the nearest-core-distance score attached.

    The core and outlier masks come from the vectorized engine's core
    and outlier rounds on the scores' own grid, so they match the plain
    detector exactly; a score of exactly ``eps`` may belong to either
    side.  The result carries a full run record, so ``timings`` breaks
    down the ``grid``/``core_points``/``scores``/``outliers`` phases
    and ``stats`` reports the work counters.
    """
    recorder = RunRecorder(
        engine="vectorized+scores",
        params={"eps": eps, "min_pts": min_pts},
        context={
            "engine": "vectorized+scores",
            "eps": eps,
            "min_pts": min_pts,
        },
    )
    scores, core_mask, outlier_mask = _score(
        points, eps, min_pts, recorder, outliers=True
    )
    n_dims = np.asarray(points).shape[1] if np.asarray(points).ndim == 2 else None
    record = recorder.finish(scores.shape[0], n_dims=n_dims)
    return DetectionResult(
        n_points=scores.shape[0],
        outlier_mask=outlier_mask,
        core_mask=core_mask,
        scores=scores,
        timings=record.timing_breakdown(),
        stats=record.flat_stats(),
        record=record,
    )
