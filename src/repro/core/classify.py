"""Exact out-of-sample classification against a fitted DBSCOUT model.

DBSCOUT's broadcast core/dense cell map (Algorithms 2/4) is exactly the
structure needed to answer "is this new point an outlier?" without
refitting: by Definition 3 a point is an inlier iff it lies within
``eps`` of some core point, and every core point within ``eps`` of a
query point lives in one of the ``k_d`` stencil-neighboring cells of
the query's cell (Definition 8).  A fitted detector therefore reduces
to the core points grouped by their epsilon-cell — the
:class:`CoreModel` — and classification of unseen points is an exact
O(k_d)-cell check:

1. a query whose cell is itself a *core cell* (dense or holding a core
   point) is an inlier outright, because any two points sharing a
   diagonal-``eps`` cell are within ``eps`` of each other (Lemma 1);
2. otherwise the query is compared against the core points of its
   neighboring core cells with the same squared-distance accumulation
   order as the fit engines, so ``classify`` reproduces ``fit`` labels
   *bit-identically* on the training data.

The model is what :mod:`repro.serve` persists and serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.cellindex import CellIndex
from repro.core.grid import Grid, cell_side_length, validate_points
from repro.core.neighbors import NeighborStencil
from repro.exceptions import DataValidationError, ParameterError
from repro.types import DetectionResult

__all__ = ["CoreModel", "classify"]


@dataclass(frozen=True)
class CoreModel:
    """A fitted DBSCOUT detector reduced to its servable essence.

    The model is the core points grouped by epsilon-cell: enough to
    classify any point exactly (see the module docstring), cheap to
    persist (:mod:`repro.serve.artifact`), and typically far smaller
    than the training data.

    Attributes:
        eps: Neighborhood radius the detector was fitted with.
        min_pts: Density threshold the detector was fitted with.
        n_dims: Dimensionality of the space.
        core_points: ``(k, d)`` float64 core-point coordinates, stored
            contiguously grouped by cell.
        core_cells: ``(m, d)`` int64 coordinates of the unique cells
            holding core points (every such cell is a core cell, and
            every core cell holds a core point).
        core_starts: ``(m + 1,)`` int64 CSR offsets: the core points of
            ``core_cells[i]`` are
            ``core_points[core_starts[i]:core_starts[i + 1]]``.
        n_train: Number of training points the detector was fitted on.
        engine: Name of the engine that produced the fit.
        metadata: Free-form facts carried along (artifact name, ...).

    Construction also builds the :class:`~repro.core.cellindex.CellIndex`
    of ``core_cells`` that every :meth:`classify` call probes, so its
    cost (a sort of the core-cell keys, 16 bytes per core cell) is paid
    once per model — at fit, artifact load or snapshot export — and
    never per query.
    """

    eps: float
    min_pts: int
    n_dims: int
    core_points: np.ndarray
    core_cells: np.ndarray
    core_starts: np.ndarray
    n_train: int = 0
    engine: str = "vectorized"
    metadata: dict[str, Any] = field(default_factory=dict)
    _index: CellIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = np.ascontiguousarray(self.core_points, dtype=np.float64)
        cells = np.ascontiguousarray(self.core_cells, dtype=np.int64)
        starts = np.ascontiguousarray(self.core_starts, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != self.n_dims:
            raise ParameterError(
                f"core_points must have shape (k, {self.n_dims}), "
                f"got {points.shape}"
            )
        if cells.ndim != 2 or cells.shape[1] != self.n_dims:
            raise ParameterError(
                f"core_cells must have shape (m, {self.n_dims}), "
                f"got {cells.shape}"
            )
        if (
            starts.ndim != 1
            or starts.shape[0] != cells.shape[0] + 1
            or (cells.shape[0] and starts[0] != 0)
            or (cells.shape[0] and starts[-1] != points.shape[0])
            or (np.diff(starts) < 1).any()
        ):
            raise ParameterError(
                "core_starts must be a monotone CSR offset array mapping "
                "every core cell to a non-empty core-point run"
            )
        object.__setattr__(self, "core_points", points)
        object.__setattr__(self, "core_cells", cells)
        object.__setattr__(self, "core_starts", starts)
        object.__setattr__(
            self,
            "_index",
            CellIndex(cells, NeighborStencil(self.n_dims).offsets),
        )

    # -- construction --------------------------------------------------

    @classmethod
    def from_fit(
        cls,
        points: np.ndarray,
        result: DetectionResult,
        eps: float,
        min_pts: int,
        engine: str = "vectorized",
        **metadata: Any,
    ) -> "CoreModel":
        """Build the servable model from a fit's training data and result.

        Args:
            points: The training points the detector was fitted on.
            result: The :class:`DetectionResult` of that fit (must
                carry a ``core_mask``).
            eps: Neighborhood radius used for the fit.
            min_pts: Density threshold used for the fit.
            engine: Engine name recorded in the model.
            **metadata: Extra facts to carry in :attr:`metadata`.
        """
        array = validate_points(points)
        if result.core_mask is None:
            raise ParameterError(
                "result has no core_mask; only density-based fits "
                "(DBSCOUT engines) can be turned into a CoreModel"
            )
        if result.n_points != array.shape[0]:
            raise ParameterError(
                f"result covers {result.n_points} points but "
                f"{array.shape[0]} were given"
            )
        core = array[result.core_mask]
        if core.shape[0] == 0:
            n_dims = array.shape[1]
            return cls(
                eps=float(eps),
                min_pts=int(min_pts),
                n_dims=n_dims,
                core_points=np.empty((0, n_dims)),
                core_cells=np.empty((0, n_dims), dtype=np.int64),
                core_starts=np.zeros(1, dtype=np.int64),
                n_train=array.shape[0],
                engine=engine,
                metadata=dict(metadata),
            )
        grid = Grid(core, eps)
        order, _ = grid.members_csr()
        starts = np.concatenate(
            ([0], np.cumsum(grid.counts))
        ).astype(np.int64)
        return cls(
            eps=float(eps),
            min_pts=int(min_pts),
            n_dims=array.shape[1],
            core_points=core[order],
            core_cells=grid.cells,
            core_starts=starts,
            n_train=array.shape[0],
            engine=engine,
            metadata=dict(metadata),
        )

    # -- views ---------------------------------------------------------

    @property
    def side(self) -> float:
        """Cell side length ``eps / sqrt(d)`` of the fitted grid."""
        return cell_side_length(self.eps, self.n_dims)

    @property
    def n_core_points(self) -> int:
        """Number of stored core points."""
        return int(self.core_points.shape[0])

    @property
    def n_core_cells(self) -> int:
        """Number of cells holding core points."""
        return int(self.core_cells.shape[0])

    def nbytes(self) -> int:
        """Approximate in-memory size of the model arrays."""
        return int(
            self.core_points.nbytes
            + self.core_cells.nbytes
            + self.core_starts.nbytes
        )

    # -- classification ------------------------------------------------

    def classify(
        self,
        points: np.ndarray,
        counters: dict[str, int] | None = None,
        kernel: Any = "auto",
    ) -> np.ndarray:
        """Exact labels for (possibly unseen) points: 1 outlier, 0 inlier.

        A point is an outlier iff every stored core point is strictly
        farther than ``eps`` (Definition 3).  On the training data this
        reproduces the ``fit`` labels bit-identically, for both
        engines.

        Args:
            points: ``(n, d)`` array of query points.
            counters: Optional dict accumulating
                ``distance_computations`` / ``cells_settled_core`` /
                ``cells_no_candidates`` work counters.
            kernel: Distance-kernel selection (see
                :func:`repro.core.kernels.resolve_kernel`); labels are
                bit-identical for every choice.

        Returns:
            ``(n,)`` int64 label array matching
            :meth:`repro.types.DetectionResult.labels`.
        """
        from repro.core.kernels import resolve_kernel
        from repro.core.vectorized import (
            _ADJACENCY_PROBE_BUDGET,
            _flat_ranges,
        )

        # An empty query batch — (0, d), (0,), [] — has exactly zero
        # labels, whatever its shape claims about dimensionality.
        probe = np.asarray(points, dtype=np.float64)
        if probe.size == 0 and probe.ndim <= 2:
            return np.zeros(0, dtype=np.int64)
        array = validate_points(points)
        if array.shape[1] != self.n_dims:
            raise DataValidationError(
                f"query points have {array.shape[1]} dims, "
                f"model was fitted on {self.n_dims}"
            )
        n_queries = array.shape[0]
        labels = np.zeros(n_queries, dtype=np.int64)
        if counters is None:
            counters = {}
        counters.setdefault("distance_computations", 0)
        counters.setdefault("cells_settled_core", 0)
        counters.setdefault("cells_no_candidates", 0)
        if self.n_core_points == 0:
            # No core points anywhere: every point is an outlier.
            labels[:] = 1
            return labels
        qgrid = Grid(array, self.eps)
        # Lemma 1 shortcut: a query in a core cell shares a
        # diagonal-eps cell with a core point, hence is an inlier —
        # exactly how fit settles points of core cells, so the
        # bit-consistency on training data is by construction.
        settled = self._index.find(qgrid.cells) >= 0
        counters["cells_settled_core"] += int(settled.sum())
        work = np.flatnonzero(~settled)
        # Candidate core cells per unsettled query cell, grouped by cell
        # in stencil-offset order; sources index ``work``.
        sources, hits = self._index.probe(
            qgrid.cells[work], _ADJACENCY_PROBE_BUDGET
        )
        starts = self.core_starts
        per_hit = starts[hits + 1] - starts[hits]
        pair_lens = np.bincount(sources, minlength=work.shape[0])
        c_sizes = np.bincount(
            sources, weights=per_hit, minlength=work.shape[0]
        ).astype(np.int64)
        counters["cells_no_candidates"] += int((pair_lens == 0).sum())
        # The kernel sees the queries followed by the points of the core
        # cells the probe hit, each gathered once: targets index the
        # query block, candidates the gathered block after it.
        used, local = np.unique(hits, return_inverse=True)
        used_sizes = starts[used + 1] - starts[used]
        gathered = self.core_points[_flat_ranges(starts[used], used_sizes)]
        used_starts = n_queries + np.concatenate(
            ([0], np.cumsum(used_sizes)[:-1])
        )
        cands_flat = _flat_ranges(used_starts[local], per_hit)
        qorder, qstarts = qgrid.members_csr()
        members_flat = qorder[
            _flat_ranges(qstarts[work], qgrid.counts[work])
        ]
        counts = resolve_kernel(kernel, counters).segmented_pair_counts(
            np.concatenate([array, gathered], axis=0),
            members_flat,
            qgrid.counts[work],
            cands_flat,
            c_sizes,
            self.eps * self.eps,
            counters,
        )
        labels[members_flat[counts == 0]] = 1
        return labels

    def classify_mask(self, points: np.ndarray) -> np.ndarray:
        """Boolean outlier mask form of :meth:`classify`."""
        return self.classify(points).astype(bool)

    def __repr__(self) -> str:
        return (
            f"CoreModel(eps={self.eps}, min_pts={self.min_pts}, "
            f"n_dims={self.n_dims}, n_core_points={self.n_core_points}, "
            f"n_core_cells={self.n_core_cells}, n_train={self.n_train})"
        )


def classify(model: CoreModel, points: np.ndarray) -> np.ndarray:
    """Exact out-of-sample labels (1 outlier, 0 inlier) for ``points``.

    Functional form of :meth:`CoreModel.classify`; see there for the
    guarantees.
    """
    return model.classify(points)
