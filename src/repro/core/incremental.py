"""Incremental DBSCOUT: exact outlier maintenance under insert and remove.

Insertions and removals dirty the cells ``D`` they touch.  By Lemmas 1-2
and Definition 8, core status can then change only in ``R1 = N(D)``
(the non-empty cells with a neighbor in ``D``) and outlier status only
in ``R2 = N(C ∪ D)``, where ``C`` holds the cells of ``R1`` whose core
set changed.  So ``detect()`` grids the active points, indexes the
cells, runs the batch engine's own core round on ``R1``'s non-dense
cells and its outlier round on ``R2``'s non-core cells (Lemma 2), each
with adjacency rows for its work cells alone, and writes back ``R1`` and
``R2`` only.  The first ``detect()`` after a fill dirties every cell.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core.cellindex import CellIndex
from repro.core.grid import Grid, cell_side_length, check_grid_domain, validate_points
from repro.core.kernels import normalize_kernel, resolve_kernel
from repro.core.neighbors import NeighborStencil
from repro.core.validation import validate_parameters
from repro.core.vectorized import VectorizedEngine, _CellAdjacency, _flat_ranges
from repro.exceptions import DataValidationError, ParameterError
from repro.obs import MetricsRegistry, RunRecorder, span
from repro.types import DetectionResult

__all__ = ["IncrementalDBSCOUT"]

#: ``CellIndex.probe`` budget: blocks of ``budget // k_d`` query cells
#: keep a detect's four probes small.
_REGION_PROBE_BUDGET = 250_000


class IncrementalDBSCOUT:
    """Exact DBSCOUT over a growing (or sliding) dataset.

    Usage:
        >>> detector = IncrementalDBSCOUT(eps=1.0, min_pts=3)
        >>> detector.insert([[0.0, 0.0], [0.1, 0.1], [0.2, 0.0], [9.0, 9.0]])
        >>> detector.detect().outlier_mask.tolist()
        [False, False, False, True]

    Args:
        eps: Neighborhood radius.
        min_pts: Density threshold (self included).
        initial_capacity: Initial size of the internal point buffer.
        kernel: Distance-kernel tier (``"auto"``/``"numpy"``/``"c"`` or a
            :class:`~repro.core.kernels.Kernel`); labels are identical.
    """

    def __init__(self, eps: float, min_pts: int, initial_capacity: int = 1024,
                 kernel: str | None = "auto") -> None:
        self.eps, self.min_pts = validate_parameters(eps, min_pts)
        if initial_capacity < 1:
            raise ParameterError(f"initial_capacity must be >= 1: {initial_capacity}")
        self.kernel = normalize_kernel(kernel)
        self._resolved_kernel = None  # lazy; cached across detects
        #: Lifetime ``incremental.*`` counters, carried by every run record.
        self.metrics = MetricsRegistry()
        self._capacity = int(initial_capacity)
        self._n_points = 0
        self._n_dims: int | None = None
        self._side = self._offsets = None  # fixed by the first batch
        self._buffer = np.empty((0, 0))  # capacity rows, as are the masks
        self._active = self._core = self._outlier = np.zeros(0, dtype=bool)
        self._pending: list[np.ndarray] = []  # dirty cell coordinates

    @property
    def n_points(self) -> int:
        """Number of points inserted so far."""
        return self._n_points

    @property
    def n_dims(self) -> int | None:
        """Dimensionality (None before the first insert)."""
        return self._n_dims

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask over all inserted points; False = removed."""
        return self._active[: self._n_points].copy()

    @property
    def n_active(self) -> int:
        """Number of active (not removed) points."""
        return int(np.count_nonzero(self._active[: self._n_points]))

    def _append(self, batch, active, core=False, outlier=False) -> None:
        """Store ``batch`` after the current points, growing the buffers."""
        if self._n_dims is None:
            self._n_dims = batch.shape[1]
            self._side = cell_side_length(self.eps, self._n_dims)
            self._offsets = NeighborStencil(self._n_dims).offsets
            self._buffer = np.empty((0, self._n_dims))
        elif batch.shape[1] != self._n_dims:
            raise DataValidationError(
                f"batch has {batch.shape[1]} dimensions, detector has {self._n_dims}"
            )
        check_grid_domain(batch, self._side)
        start, stop = self._n_points, self._n_points + batch.shape[0]
        arrays = [self._buffer, self._active, self._core, self._outlier]
        if stop > self._buffer.shape[0]:
            while self._capacity < stop:
                self._capacity *= 2
            for i, old in enumerate(arrays):
                arrays[i] = np.zeros((self._capacity,) + old.shape[1:], old.dtype)
                arrays[i][:start] = old[:start]
            self._buffer, self._active, self._core, self._outlier = arrays
        for array, rows in zip(arrays, (batch, active, core, outlier)):
            array[start:stop] = rows
        self._n_points = stop

    def _touch(self, rows: np.ndarray, op: str, done: str) -> None:
        """Mark the cells of ``rows`` dirty and count the operation."""
        self._pending.append(np.floor(rows / self._side).astype(np.int64))
        self.metrics.increment(f"incremental.{op}")
        self.metrics.increment(f"incremental.points_{done}", rows.shape[0])
        self.metrics.set("incremental.window_points", self.n_active)

    def insert(self, points: np.ndarray) -> None:
        """Append a batch of points; marks their cells dirty."""
        batch = validate_points(points)
        if batch.shape[0] == 0:
            return
        with span("incremental.insert", n_points=int(batch.shape[0])):
            self._append(batch, True)
        self._touch(batch, "inserts", "inserted")

    def remove(self, point_indices) -> None:
        """Logically delete points by insertion index; their cells turn dirty.

        Removed points keep their index (neither core nor outlier).  Raises
        ParameterError, changing nothing, for an out-of-range, repeated or
        already removed index."""
        indices = np.atleast_1d(np.asarray(point_indices, dtype=np.int64))
        if indices.size == 0:
            return
        if indices.min() < 0 or indices.max() >= self._n_points:
            raise ParameterError(f"point indices must be in [0, {self._n_points})")
        if np.unique(indices).size != indices.size or not self._active[indices].all():
            raise ParameterError("point indices must be unique and not removed")
        with span("incremental.remove", n_points=int(indices.size)):
            for mask in (self._active, self._core, self._outlier):
                mask[indices] = False
        self._touch(self._buffer[indices], "removes", "removed")

    def _dirty_cells(self) -> np.ndarray:
        """The pending dirty cells: unique rows in lexicographic order."""
        if not self._pending:
            return np.empty((0, self._n_dims or 0), dtype=np.int64)
        self._pending = [np.unique(np.concatenate(self._pending), axis=0)]
        return self._pending[0]

    def save(self, path) -> None:
        """Checkpoint points, masks and pending dirty cells to ``.npz``."""
        if (n := self._n_points) == 0:
            raise ParameterError("cannot checkpoint an empty detector")
        np.savez_compressed(
            pathlib.Path(path), eps=np.array([self.eps]),
            min_pts=np.array([self.min_pts]), points=self._buffer[:n].copy(),
            core_mask=self._core[:n], outlier_mask=self._outlier[:n],
            active_mask=self._active[:n], dirty=self._dirty_cells(),
        )

    @classmethod
    def load(cls, path) -> "IncrementalDBSCOUT":
        """Restore a detector from a :meth:`save` checkpoint."""
        path = pathlib.Path(path)
        if not path.exists():
            raise DataValidationError(f"no checkpoint at {path}")
        with np.load(path) as archive:
            state = {key: archive[key] for key in archive.files}
        points = validate_points(state["points"])
        eps, min_pts = float(state["eps"][0]), int(state["min_pts"][0])
        detector = cls(eps, min_pts, max(len(points), 1))
        masks = state["active_mask"], state["core_mask"], state["outlier_mask"]
        detector._append(points, *masks)
        detector._pending = [state["dirty"].astype(np.int64)]
        detector.metrics.set("incremental.window_points", detector.n_active)
        return detector

    def _compact(self) -> None:
        """Drop removed points; the rest are renumbered in insertion order."""
        ids = np.flatnonzero(self._active[: self._n_points])
        kept = self._buffer[ids], True, self._core[ids], self._outlier[ids]
        self._buffer, self._capacity, self._n_points = np.empty((0, self._n_dims)), 1, 0
        self._active = self._core = self._outlier = np.zeros(0, dtype=bool)
        self._append(*kept)

    def detect(self) -> DetectionResult:
        """Re-run both rounds over the pending dirty region; return labels."""
        n = self._n_points
        if n == 0:
            empty = np.zeros(0, dtype=bool)
            return DetectionResult(n_points=0, outlier_mask=empty, core_mask=empty)
        dirty = self._dirty_cells()
        recorder = RunRecorder(
            engine="incremental", params={"eps": self.eps, "min_pts": self.min_pts},
            context={"engine": "incremental", "dirty_cells": dirty.shape[0]},
        )
        if self._resolved_kernel is None:  # a fallback is counted once
            fallback: dict[str, int] = {}
            self._resolved_kernel = resolve_kernel(self.kernel, fallback)
            recorder.metrics.merge(fallback, namespace="engine")
        recorder.add_context(kernel=self._resolved_kernel.name)
        self.metrics.set("incremental.dirty_cells", dirty.shape[0])
        if dirty.shape[0]:
            self._redetect(recorder, dirty)
            self._pending = []
        self.metrics.increment("incremental.detects")
        recorder.metrics.merge(self.metrics.snapshot())  # not the rounds' counters
        record = recorder.finish(n, n_dims=self._n_dims)
        return DetectionResult(
            n_points=n, outlier_mask=self._outlier[:n].copy(),
            core_mask=self._core[:n].copy(), timings=record.timing_breakdown(),
            stats=record.flat_stats(), record=record,
        )

    def _redetect(self, recorder: RunRecorder, dirty: np.ndarray) -> None:
        """Both rounds over the dirty region, written back in place."""
        ids = np.flatnonzero(self._active[: self._n_points])
        with recorder.span("grid"):
            grid = Grid(self._buffer[ids], self.eps)
            index = CellIndex(grid.cells, self._offsets)
        order, starts = grid.members_csr()
        kernel = self._resolved_kernel
        scratch = {"distance_computations": 0, "pruned_cells": 0}
        core = self._core[ids]  # exact outside R1
        with recorder.span("core_points"):
            r1 = np.unique(index.probe(dirty, _REGION_PROBE_BUDGET)[1])  # N(D)
            dense = grid.counts >= self.min_pts
            work = r1[~dense[r1]]
            fresh = VectorizedEngine._find_core_points(
                grid.points, grid,
                _CellAdjacency.region(index, work, _REGION_PROBE_BUDGET),
                dense, self.eps, self.min_pts, scratch, kernel=kernel, work_cells=work,
            )
            members = order[_flat_ranges(starts[r1], grid.counts[r1])]
            flipped = members[core[members] != fresh[members]]
            core[members] = fresh[members]
            self._core[ids[members]] = fresh[members]
        with recorder.span("outliers"):
            changed = np.unique(grid.point_cell[flipped])
            rows = np.concatenate([grid.cells[changed], dirty])
            r2 = np.unique(index.probe(rows, _REGION_PROBE_BUDGET)[1])  # N(C ∪ D)
            cell_is_core = VectorizedEngine._core_cell_map(grid, dense, core)
            work = r2[~cell_is_core[r2]]
            outlier = VectorizedEngine._find_outliers(
                grid.points, grid,
                _CellAdjacency.region(index, work, _REGION_PROBE_BUDGET),
                cell_is_core, core, self.eps, scratch, kernel=kernel, work_cells=work,
            )
            members = order[_flat_ranges(starts[r2], grid.counts[r2])]
            self._outlier[ids[members]] = outlier[members]
        recorder.add_context(n_cells=grid.n_cells, core_cells_recomputed=r1.size,
                             outlier_cells_recomputed=r2.size)
        self.metrics.increment("incremental.core_cells_recomputed", r1.size)
        self.metrics.increment("incremental.outlier_cells_recomputed", r2.size)

    def __repr__(self) -> str:
        pending = self._dirty_cells().shape[0]
        return (f"IncrementalDBSCOUT(eps={self.eps}, min_pts={self.min_pts}, "
                f"n_points={self._n_points}, pending_dirty={pending})")
