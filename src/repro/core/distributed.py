"""Distributed DBSCOUT engine: Algorithms 1-5 on the SparkLite substrate.

This is a faithful transcription of the paper's five phases into the
Spark transformation vocabulary:

1. *Grid partitioning* (Algorithm 1) — ``MAP`` each point to its cell.
2. *Dense cell map* (Algorithm 2) — word-count per cell
   (``MAP`` + ``REDUCEBYKEY``), classify, ``BROADCAST``.
3. *Core points* (Algorithm 3) — Lemma 1 shortcut for dense cells;
   for the rest, ``FLATMAP`` candidate pairs onto neighbor cells,
   ``JOIN`` with the grid, count distances ``<= eps``, ``FILTER`` by
   ``min_pts``.
4. *Core cell map* (Algorithm 4) — upgrade cells holding core points,
   re-``BROADCAST``.
5. *Outliers* (Algorithm 5) — points of non-core cells without core
   neighbors are outliers outright; the rest are joined against core
   points of neighboring core cells and kept iff every distance
   exceeds ``eps``.

Three join strategies mirror Section III-G:

* ``"plain"`` — the textbook record-level JOIN of Algorithms 3/5;
* ``"group"`` — *grouping before joining*: the grid side is
  ``GROUPBYKEY``-ed first, which both shrinks one join operand and
  enables early termination (stop counting at ``min_pts``; stop
  scanning on the first covering core point).  This is the strategy
  the paper uses in all performance experiments.
* ``"broadcast"`` — *broadcast join*: the points-to-check are collected
  into a map that is broadcast, eliminating the shuffle join entirely.
  Best for large ``eps`` (few points to check); can exhaust memory.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.core.cellmap import CellMap, CellType
from repro.core.grid import (
    cell_side_length,
    check_grid_domain,
    validate_points,
)
from repro.core.neighbors import NeighborStencil
from repro.core.validation import validate_parameters
from repro.exceptions import ParameterError
from repro.obs import RunRecorder
from repro.sparklite import CellPartitioner, Context, EngineMetrics, RDD
from repro.types import DetectionResult

__all__ = ["DistributedEngine", "JOIN_STRATEGIES", "PARTITIONERS"]

JOIN_STRATEGIES = ("group", "plain", "broadcast")

#: How phase 1 shards the grid across partitions: ``"rows"`` slices
#: the input row range evenly (the historical default); ``"cells"``
#: routes whole grid cells by spatial block
#: (:class:`~repro.sparklite.CellPartitioner`), so the grouped joins
#: of phases 3/5 find the grid side already partitioned by cell and
#: skip that shuffle.
PARTITIONERS = ("rows", "cells")

Cell = tuple[int, ...]
#: A grid record is ``(cell, (point_index, point_coordinates))``.
Point = tuple[int, tuple[float, ...]]


class DistributedEngine:
    """Exact DBSCOUT over SparkLite RDDs.

    Args:
        num_partitions: Number of RDD partitions (the x-axis of Fig. 13).
        max_workers: Executor threads for the SparkLite context.
        join_strategy: One of :data:`JOIN_STRATEGIES`; see module docs.
        context: Optional externally managed context.  Its
            ``context.metrics`` keep accumulating across fits (the
            cumulative cluster view); each ``DetectionResult`` reports
            this run's *delta* in ``stats``/``record``.
        executor: ``"local"`` (default) or ``"net"`` — forwarded to
            the engine-owned :class:`~repro.sparklite.Context`.  With
            ``"net"`` the engine drives registered remote workers (see
            :mod:`repro.sparklite.netexec`); labels are bit-identical
            to local execution.  Incompatible with an explicit
            ``context`` whose executor differs.
        partitioner: One of :data:`PARTITIONERS` — how the grid is
            sharded (``"cells"`` enables the spatially-aware
            :class:`~repro.sparklite.CellPartitioner`).  Labels are
            identical either way; only data movement changes.
    """

    name = "distributed"

    def __init__(
        self,
        num_partitions: int = 8,
        max_workers: int = 1,
        join_strategy: str = "group",
        context: Context | None = None,
        executor: str | None = None,
        partitioner: str = "rows",
    ) -> None:
        if join_strategy not in JOIN_STRATEGIES:
            raise ParameterError(
                f"join_strategy must be one of {JOIN_STRATEGIES}, "
                f"got {join_strategy!r}"
            )
        if num_partitions < 1:
            raise ParameterError(
                f"num_partitions must be >= 1, got {num_partitions}"
            )
        if partitioner not in PARTITIONERS:
            raise ParameterError(
                f"partitioner must be one of {PARTITIONERS}, "
                f"got {partitioner!r}"
            )
        self.num_partitions = int(num_partitions)
        self.join_strategy = join_strategy
        self.partitioner = partitioner
        self._cell_partitioner = (
            CellPartitioner(self.num_partitions)
            if partitioner == "cells"
            else None
        )
        self._owns_context = context is None
        if context is not None:
            if executor is not None and executor != context.executor:
                raise ParameterError(
                    f"executor={executor!r} conflicts with the supplied "
                    f"context's executor={context.executor!r}"
                )
            self.context = context
        else:
            self.context = Context(
                default_parallelism=num_partitions,
                max_workers=max_workers,
                executor=executor or "local",
            )
        self.executor = self.context.executor

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the engine-owned context (the net driver's listener).

        No-op for externally supplied contexts — their owner closes
        them — and always safe to call repeatedly.
        """
        if self._owns_context:
            self.context.close()

    def detect(
        self, points: np.ndarray, eps: float, min_pts: int
    ) -> DetectionResult:
        """Run the five-phase DBSCOUT pipeline and return the result."""
        array = validate_points(points)
        eps, min_pts = validate_parameters(eps, min_pts)
        n_points = array.shape[0]
        if n_points == 0:
            return DetectionResult(
                n_points=0,
                outlier_mask=np.zeros(0, dtype=bool),
                core_mask=np.zeros(0, dtype=bool),
            )
        n_dims = array.shape[1]
        stencil = NeighborStencil(n_dims)
        recorder = RunRecorder(
            engine=self.name,
            params={"eps": eps, "min_pts": min_pts},
            context={
                "engine": self.name,
                "join_strategy": self.join_strategy,
                "num_partitions": self.num_partitions,
                "executor": self.executor,
                "partitioner": self.partitioner,
            },
        )
        # With an externally supplied context, the context metrics keep
        # accumulating across fits (the cumulative cluster view); the
        # run record and stats report this run's delta only.
        metrics_before = self.context.metrics.snapshot()

        with recorder.activate():
            # Phase 1: grid partitioning and point-cell assignment.
            with recorder.span("grid"):
                grid = self._create_grid(array, eps).cache()

            # Phase 2: dense cell map construction.
            with recorder.span("dense_cell_map"):
                cell_map = self._build_dense_cell_map(
                    grid, min_pts, stencil
                )

            # Phase 3: core points identification.
            with recorder.span("core_points"):
                core_points = self._find_core_points(
                    grid, eps, min_pts, cell_map
                ).cache()
                core_records = core_points.collect()

            # Phase 4: core cell map construction.
            with recorder.span("core_cell_map"):
                for cell, _point in core_records:
                    cell_map.mark_core(cell)

            # Phase 5: outliers identification.
            with recorder.span("outliers"):
                outlier_records = self._find_outliers(
                    grid, eps, cell_map, core_points
                ).collect()

        run_metrics = self.context.metrics.delta(metrics_before)
        # Qualify for the run record: substrate counters (bare and
        # net.*) go under sparklite.*, while telemetry harvested from
        # remote workers keeps its worker.* namespace.
        recorder.metrics.merge(EngineMetrics.qualify(run_metrics))
        recorder.add_context(
            n_cells=len(cell_map),
            k_d=stencil.k_d,
            max_workers=self.context.max_workers,
        )
        record = recorder.finish(n_points=n_points, n_dims=n_dims)

        core_mask = np.zeros(n_points, dtype=bool)
        core_mask[[index for _cell, (index, _p) in core_records]] = True
        outlier_mask = np.zeros(n_points, dtype=bool)
        outlier_mask[[index for _cell, (index, _p) in outlier_records]] = True
        return DetectionResult(
            n_points=n_points,
            outlier_mask=outlier_mask,
            core_mask=core_mask,
            timings=record.timing_breakdown(),
            stats=record.flat_stats(),
            record=record,
        )

    # ------------------------------------------------------------------
    # Phase 1 — Algorithm 1
    # ------------------------------------------------------------------

    def _create_grid(self, array: np.ndarray, eps: float) -> RDD:
        """MAP each point to ``(cell, (index, coords))``.

        Under ``partitioner="cells"`` the records are routed to shards
        by their cell's spatial block, and the returned RDD remembers
        the partitioner — the grouped joins downstream then reuse the
        partitioning instead of re-shuffling the grid.
        """
        side = cell_side_length(eps, array.shape[1])
        check_grid_domain(array, side)
        records: list[tuple[Cell, Point]] = [
            (
                tuple(int(math.floor(value / side)) for value in row),
                (index, tuple(float(value) for value in row)),
            )
            for index, row in enumerate(array)
        ]
        return self.context.parallelize(
            records, self.num_partitions, partitioner=self._cell_partitioner
        )

    # ------------------------------------------------------------------
    # Phase 2 — Algorithm 2
    # ------------------------------------------------------------------

    def _build_dense_cell_map(
        self, grid: RDD, min_pts: int, stencil: NeighborStencil
    ) -> CellMap:
        """Count points per cell and classify dense vs other."""
        counts = (
            grid.map(lambda record: (record[0], 1))
            .reduce_by_key(
                lambda a, b: a + b, partitioner=self._cell_partitioner
            )
            .collect_as_map()
        )
        return CellMap.from_counts(counts, min_pts, stencil=stencil)

    # ------------------------------------------------------------------
    # Phase 3 — Algorithm 3
    # ------------------------------------------------------------------

    def _find_core_points(
        self,
        grid: RDD,
        eps: float,
        min_pts: int,
        cell_map: CellMap,
    ) -> RDD:
        """Union of dense-cell core points and join-verified core points."""
        map_broadcast = self.context.broadcast(cell_map)
        dense_core = grid.filter(
            lambda record: map_broadcast.value.cell_type(record[0])
            is CellType.DENSE
        )
        to_check = grid.filter(
            lambda record: map_broadcast.value.cell_type(record[0])
            is not CellType.DENSE
        ).flat_map(
            lambda record: _emit_to_neighbors(record, map_broadcast.value)
        )
        counts = self._count_near_pairs(grid, to_check, eps, min_pts)
        verified = (
            counts.filter(lambda kv: kv[1][0] >= min_pts)
            .map(lambda kv: kv[1][1])
        )
        return dense_core.union(verified)

    def _count_near_pairs(
        self,
        grid: RDD,
        to_check: RDD,
        eps: float,
        min_pts: int,
    ) -> RDD:
        """Count, per checked point, neighbors within ``eps``.

        Returns an RDD of ``(point_index, (count, (cell, point)))``.
        The count is capped at ``min_pts`` under the grouped strategy
        (early termination), which preserves the ``>= min_pts`` test.

        A pair meeting on the checked point's *own* cell is a neighbor
        by Lemma 1 without a distance test — the operational predicate
        of ``repro.core.reference`` — keeping all three strategies
        bit-consistent with the reference and the other engines at the
        float boundary.
        """
        eps_sq = eps * eps

        if self.join_strategy == "plain":
            pairs = grid.join(to_check, partitioner=self._cell_partitioner)

            def score(record):
                join_cell, ((_qi, q), (cell, point)) = record
                near = (
                    join_cell == cell or _sq_dist(point[1], q) <= eps_sq
                )
                return (point[0], (1 if near else 0, (cell, point)))

            return pairs.map(score).reduce_by_key(_merge_counts)

        if self.join_strategy == "group":
            grouped = grid.group_by_key(partitioner=self._cell_partitioner)
            pairs = grouped.join(
                to_check, partitioner=self._cell_partitioner
            )

            def score_group(record):
                join_cell, (neighbors, (cell, point)) = record
                same_cell = join_cell == cell
                count = 0
                for _qi, q in neighbors:
                    if same_cell or _sq_dist(point[1], q) <= eps_sq:
                        count += 1
                        if count >= min_pts:
                            break  # early termination (Sec. III-G2)
                return (point[0], (count, (cell, point)))

            return pairs.map(score_group).reduce_by_key(_merge_counts)

        # Broadcast join: ship the points-to-check to every executor.
        check_map: dict[Cell, list] = {}
        for neighbor_cell, payload in to_check.collect():
            check_map.setdefault(neighbor_cell, []).append(payload)
        check_broadcast = self.context.broadcast(check_map)

        def probe(record):
            cell, (_qi, q) = record
            out = []
            for checked_cell, point in check_broadcast.value.get(cell, ()):
                near = (
                    checked_cell == cell
                    or _sq_dist(point[1], q) <= eps_sq
                )
                out.append((point[0], (1 if near else 0, (checked_cell, point))))
            return out

        return grid.flat_map(probe).reduce_by_key(_merge_counts)

    # ------------------------------------------------------------------
    # Phase 5 — Algorithm 5
    # ------------------------------------------------------------------

    def _find_outliers(
        self,
        grid: RDD,
        eps: float,
        cell_map: CellMap,
        core_points: RDD,
    ) -> RDD:
        """Union of no-core-neighbor outliers and join-verified outliers."""
        map_broadcast = self.context.broadcast(cell_map)
        non_core = grid.filter(
            lambda record: not map_broadcast.value.is_core_cell(record[0])
        ).cache()
        isolated = non_core.filter(
            lambda record: not map_broadcast.value.core_neighbors(record[0])
        )
        to_check = non_core.filter(
            lambda record: bool(map_broadcast.value.core_neighbors(record[0]))
        ).flat_map(
            lambda record: _emit_to_core_neighbors(record, map_broadcast.value)
        )
        flags = self._outlier_flags(
            grid, cell_map, core_points, to_check, eps
        )
        verified = (
            flags.filter(lambda kv: kv[1][0])
            .map(lambda kv: kv[1][1])
        )
        return isolated.union(verified)

    def _outlier_flags(
        self,
        grid: RDD,
        cell_map: CellMap,
        core_points: RDD,
        to_check: RDD,
        eps: float,
    ) -> RDD:
        """AND-reduce, per checked point, "farther than eps from this core".

        Returns an RDD of ``(point_index, (flag, (cell, point)))`` where
        the flag is True iff every compared core point is strictly
        farther than ``eps`` (Definition 3).
        """
        eps_sq = eps * eps

        if self.join_strategy == "plain":
            pairs = core_points.join(
                to_check, partitioner=self._cell_partitioner
            )

            def flag(record):
                _cell, ((_qi, q), (cell, point)) = record
                far = _sq_dist(point[1], q) > eps_sq
                return (point[0], (far, (cell, point)))

            return pairs.map(flag).reduce_by_key(_merge_flags)

        if self.join_strategy == "group":
            grouped = core_points.group_by_key(
                partitioner=self._cell_partitioner
            )
            pairs = grouped.join(
                to_check, partitioner=self._cell_partitioner
            )

            def flag_group(record):
                _cell, (cores, (cell, point)) = record
                still_outlier = True
                for _qi, q in cores:
                    if _sq_dist(point[1], q) <= eps_sq:
                        still_outlier = False
                        break  # early termination (Sec. III-G2)
                return (point[0], (still_outlier, (cell, point)))

            return pairs.map(flag_group).reduce_by_key(_merge_flags)

        check_map: dict[Cell, list] = {}
        for neighbor_cell, payload in to_check.collect():
            check_map.setdefault(neighbor_cell, []).append(payload)
        check_broadcast = self.context.broadcast(check_map)

        def probe(record):
            cell, (_qi, q) = record
            out = []
            for checked_cell, point in check_broadcast.value.get(cell, ()):
                far = _sq_dist(point[1], q) > eps_sq
                out.append((point[0], (far, (checked_cell, point))))
            return out

        return core_points.flat_map(probe).reduce_by_key(_merge_flags)


# ----------------------------------------------------------------------
# Closure helpers (module level so they stay picklable and testable)
# ----------------------------------------------------------------------


def _sq_dist(p: tuple[float, ...], q: tuple[float, ...]) -> float:
    """Squared Euclidean distance between coordinate tuples.

    A left-to-right ``sum`` runs the kernel contract's accumulation
    (:mod:`repro.core.kernels.base`) as the same IEEE operation
    sequence, so every record task matches the kernels bit for bit.
    """
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def _merge_counts(a, b):
    return (a[0] + b[0], a[1])


def _merge_flags(a, b):
    return (a[0] and b[0], a[1])


def _emit_to_neighbors(
    record: tuple[Cell, Point], cell_map: CellMap
) -> Iterable[tuple[Cell, tuple[Cell, Point]]]:
    """Emit a non-dense-cell point onto every non-empty neighbor cell."""
    cell, point = record
    return [
        (neighbor, (cell, point)) for neighbor in cell_map.neighbors(cell)
    ]


def _emit_to_core_neighbors(
    record: tuple[Cell, Point], cell_map: CellMap
) -> Iterable[tuple[Cell, tuple[Cell, Point]]]:
    """Emit a non-core-cell point onto every neighboring *core* cell."""
    cell, point = record
    return [
        (neighbor, (cell, point))
        for neighbor in cell_map.core_neighbors(cell)
    ]
