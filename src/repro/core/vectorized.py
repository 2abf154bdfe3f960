"""Single-machine vectorized DBSCOUT engine.

Implements the exact DBSCOUT pipeline (grid partitioning -> dense cell
map -> core points -> core cell map -> outliers) with NumPy bulk
operations instead of RDD transformations.  Produces bit-identical
results to the distributed engine and to the brute-force reference; it
is the fast path used by the large-scale benchmarks.

Boundary conventions follow the paper's *definitions* (not the
pseudocode's mixed operators): a point within distance ``<= eps`` of a
candidate counts as its neighbor (Definition 2), and a point is an
outlier iff **every** core point is strictly farther than ``eps``
(Definition 3).

The engine also applies the paper's "grouping before joining" pruning
(Section III-G2): a point in a non-dense cell is only distance-checked
when the combined population of its neighboring cells reaches
``min_pts``.  The kernel counts every candidate of each member it is
given; what stops early is a whole work cell, settled before the kernel
when box tests (below) show one covered core candidate in the outlier
round, or covered populations reaching ``min_pts`` in the core round.

Further performance layers sit on top of the exact pipeline (see
``docs/architecture.md``, "Performance layers"):

* **Box tests, decided per round.**  A round may classify each
  (work cell, neighbor cell) pair by the min/max distance between the
  bounding boxes of the cells' actual points — the data-dependent
  refinement of the ``min_cell_gap_squared`` / ``max_cell_gap_squared``
  offset geometry.  *Fully-covered* pairs (max bound ``<= eps``)
  contribute the whole candidate population to every member with zero
  distance computations; in the outlier round one core candidate in a
  covered cell settles the entire work cell.  *Fully-excluded* pairs
  (min bound ``> eps``) are dropped outright.  Only boundary pairs
  reach the distance kernel.  The bounds are accumulated with the same
  float operation order as the distance kernel, so the tests are
  provably exact — results stay bit-identical to the untested path.
  A box test costs a few gathers per cell pair and saves one distance
  per point pair, so each round box-tests iff its non-self cell pairs
  hide at least ``BOX_TEST_MIN_PAIR_DENSITY[kernel]`` point pairs each
  on average, and the cell bounds are built at most once per fit, by
  the first round that box-tests.
* **Pluggable distance kernel.**  The hot loop itself is a
  :class:`repro.core.kernels.Kernel`: ``kernel="auto"`` (default)
  prefers the compiled C tier and falls back to the NumPy reference
  when no compiler is available.  Both implement the identical float
  contract, so labels are bit-identical either way.
* **Grid-tree cell planner.**  At d >= ``TREE_PLANNER_MIN_DIMS`` the
  engine builds the neighbor-cell adjacency by searching a k-d-style
  tree over the non-empty cells (``repro.core.celltree``) instead of
  range-probing the cell index once per last-axis run of the offset
  stencil per cell; same adjacency set, so labels are again
  bit-identical.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.cellindex import CellIndex, _flat_ranges
from repro.core.celltree import build_tree_adjacency
from repro.core.grid import Grid, validate_points
from repro.core.kernels import Kernel, normalize_kernel, resolve_kernel
from repro.core.neighbors import NeighborStencil
from repro.core.validation import validate_parameters
from repro.obs import RunRecorder
from repro.types import DetectionResult

__all__ = [
    "VectorizedEngine",
    "detect",
    "build_cell_adjacency",
]

#: The engine builds its adjacency with the grid-tree at this
#: dimensionality.  Range probes cost one pair of searches per
#: last-axis run of the stencil: 179 runs per cell at d = 4 still beat
#: the tree search (~2-2.5x on the A5 and mixture inputs), while the
#: 1,273 runs at d = 5 lose to it (EXPERIMENTS.md, A5).
TREE_PLANNER_MIN_DIMS = 5

#: A round box-tests iff its non-self (work cell, neighbor cell) pairs
#: hide at least this many member x candidate point pairs each on
#: average, keyed by the resolved kernel's name; other names use the
#: ``"numpy"`` value.  The compiled kernel computes a distance for
#: about what a box test spends per cell pair, so it needs denser
#: pairs before the tests pay (EXPERIMENTS.md, A6).
BOX_TEST_MIN_PAIR_DENSITY = {"c": 32, "numpy": 4}

#: Stencil probes (adjacency and ``CoreModel.classify``) run in blocks
#: of ``budget // k_d`` query cells, so a block's run keys, positions
#: and expanded hit ranges each stay within this many int64 entries
#: regardless of grid or batch size.
_ADJACENCY_PROBE_BUDGET = 4_000_000


def build_cell_adjacency(
    cells: np.ndarray, stencil: NeighborStencil
) -> tuple[np.ndarray, np.ndarray]:
    """CSR adjacency of the neighbor relation among the given cells.

    Args:
        cells: ``(m, d)`` integer cell coordinates (unique rows).
        stencil: Neighbor stencil for the same dimensionality.

    Returns:
        ``(targets, starts)``: the neighbors (present in ``cells``,
        self included) of cell ``i`` are
        ``targets[starts[i]:starts[i + 1]]``, as indices into ``cells``,
        in stencil-offset order.

    A range probe of a :class:`~repro.core.cellindex.CellIndex` of the
    cells themselves with budget ``_ADJACENCY_PROBE_BUDGET``; the probe
    already emits the pairs cell by cell in stencil-offset order.
    """
    n_cells = cells.shape[0]
    if n_cells == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    index = CellIndex(cells, stencil.offsets)
    sources, targets = index.probe(index.cells, _ADJACENCY_PROBE_BUDGET)
    counts = np.bincount(sources, minlength=n_cells)
    return targets, np.concatenate(([0], np.cumsum(counts)))


class _CellAdjacency:
    """Neighbor-cell adjacency over the non-empty cells of a grid.

    For every cell index ``i`` the structure can report the indices of
    the non-empty cells that are neighbors of ``i`` (``i`` included).
    Built once per detection — by range-probing the cell index once per
    (cell, last-axis run of the stencil), or by grid-tree search
    (``planner="tree"``) when the stencil's ``k_d`` would dwarf the
    number of non-empty cells ``m``.  Both planners produce the same
    adjacency *set* (tree row order differs), so every downstream
    label is identical.
    """

    def __init__(
        self,
        grid: Grid,
        stencil: NeighborStencil,
        planner: str = "stencil",
        counters: dict[str, int] | None = None,
    ) -> None:
        self.planner = planner
        if planner == "tree":
            self._targets, self._starts = build_tree_adjacency(
                grid.cells, counters=counters
            )
        else:
            self._targets, self._starts = build_cell_adjacency(
                grid.cells, stencil
            )
            if counters is not None:
                _bump(
                    counters,
                    "planner.cell_pairs_examined",
                    grid.n_cells * stencil.k_d,
                )

    @classmethod
    def region(
        cls, index: CellIndex, rows: np.ndarray, budget: int
    ) -> "_CellAdjacency":
        """Adjacency over ``index.cells`` with rows only for ``rows``.

        Every other cell's row is empty, so a round given this
        adjacency must be restricted to ``rows`` (its ``work_cells``).
        One :meth:`CellIndex.probe` of those cells with the given
        ``budget``; ``rows`` must be strictly ascending (``np.unique``
        output), so the probe's row-by-row pairs are already grouped by
        cell.

        Raises:
            ValueError: If ``rows`` is not strictly ascending.
        """
        if (np.diff(rows) <= 0).any():
            raise ValueError("region rows must be strictly ascending")
        sources, targets = index.probe(index.cells[rows], budget)
        counts = np.bincount(rows[sources], minlength=index.n_cells)
        adjacency = cls.__new__(cls)
        adjacency.planner = "region"
        adjacency._targets = targets
        adjacency._starts = np.concatenate(([0], np.cumsum(counts)))
        return adjacency

    def neighbors(self, cell_index: int) -> np.ndarray:
        """Indices of non-empty neighbor cells of ``cell_index``."""
        return self._targets[
            self._starts[cell_index] : self._starts[cell_index + 1]
        ]

    def rows(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbor cell ids of ``cells``, flattened in ``cells``
        order, and the length of each cell's row."""
        starts = self._starts[cells]
        lengths = self._starts[cells + 1] - starts
        return self._targets[_flat_ranges(starts, lengths)], lengths


def _segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums of consecutive runs of the given lengths (empty runs -> 0)."""
    sums = np.zeros(lengths.shape[0], dtype=values.dtype)
    nonempty = lengths > 0
    if not nonempty.any():
        return sums
    run_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    sums[nonempty] = np.add.reduceat(values, run_starts[nonempty])
    return sums


def _bump(counters: dict[str, int], key: str, delta: int) -> None:
    """Add to a counter, tolerating dicts that lack the key."""
    counters[key] = counters.get(key, 0) + int(delta)


def _cell_bounds(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell axis-aligned bounding boxes of the actual member points.

    Returns:
        ``(lo, hi)`` arrays of shape ``(n_cells, d)``.  Every cell is
        non-empty by construction, so the reduction is total.
    """
    order, starts = grid.members_csr()
    if grid.n_cells == 0:
        empty = np.empty((0, grid.points.shape[1]), dtype=np.float64)
        return empty, empty.copy()
    ordered = grid.points[order]
    lo = np.minimum.reduceat(ordered, starts, axis=0)
    hi = np.maximum.reduceat(ordered, starts, axis=0)
    return lo, hi


class _BoxTests:
    """One fit's per-round box-test decisions and their shared bounds.

    :meth:`round` hands each round a ``bounds`` hook for
    :func:`_plan_cell_jobs`.  The plan calls it with its non-self
    (work cell, neighbor cell) pairs ``cell_pairs`` and the member x
    candidate point pairs ``pairs`` behind them, and box-tests iff the
    hook returns bounds: with ``force=None`` iff
    ``pairs >= BOX_TEST_MIN_PAIR_DENSITY[kernel_name] * cell_pairs``,
    else as ``force`` says.  :func:`_cell_bounds` runs at most once, in
    a ``bounds`` span opened with ``span`` inside the first round that
    box-tests.  :attr:`context` holds each round's decision and
    ``pairs / cell_pairs`` for the run record.
    """

    def __init__(
        self, grid: Grid, kernel_name: str, force: bool | None, span
    ) -> None:
        self._grid = grid
        self._threshold = BOX_TEST_MIN_PAIR_DENSITY.get(
            kernel_name, BOX_TEST_MIN_PAIR_DENSITY["numpy"]
        )
        self._force = force
        self._span = span
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self.context: dict[str, bool | float] = {}

    def round(self, name: str):
        """The ``bounds`` hook for the round called ``name``."""
        self.context[f"box_tests.{name}"] = False
        self.context[f"pair_density.{name}"] = 0.0

        def decide(pairs: int, cell_pairs: int):
            self.context[f"pair_density.{name}"] = pairs / cell_pairs
            if self._force is None:
                box_test = pairs >= self._threshold * cell_pairs
            else:
                box_test = self._force
            self.context[f"box_tests.{name}"] = box_test
            if not box_test:
                return None
            if self._bounds is None:
                with self._span("bounds"):
                    self._bounds = _cell_bounds(self._grid)
            return self._bounds

        return decide


def _masked_cell_counts(grid: Grid, point_mask: np.ndarray) -> np.ndarray:
    """Per-cell population restricted to points where ``point_mask`` holds."""
    order, _ = grid.members_csr()
    return _segment_sums(point_mask[order].astype(np.int64), grid.counts)


def _masked_cell_bounds(
    grid: Grid,
    point_mask: np.ndarray,
    masked_counts: np.ndarray,
    cells: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Bounding boxes of ``cells`` over only the points where the mask holds.

    ``masked_counts`` is each cell's masked population
    (:func:`_masked_cell_counts`) and ``bounds`` the unmasked boxes
    (:func:`_cell_bounds`).  A cell whose members are all masked keeps
    its ``bounds`` box, so only the partly masked cells of ``cells``
    are gathered and boxed.  Cells without any masked member get
    ``(+inf, -inf)`` boxes, which classify as excluded against every
    finite box — exactly right, since they contribute no candidates.
    Rows outside ``cells`` are left as in ``bounds``; read only rows
    of ``cells``.
    """
    partial = cells[masked_counts[cells] < grid.counts[cells]]
    if partial.size == 0:
        return bounds
    lo, hi = bounds[0].copy(), bounds[1].copy()
    lo[partial] = np.inf
    hi[partial] = -np.inf
    order, member_starts = grid.members_csr()
    members = order[
        _flat_ranges(member_starts[partial], grid.counts[partial])
    ]
    masked_points = grid.points[members[point_mask[members]]]
    counts = masked_counts[partial]
    nonempty = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    lo[partial[nonempty]] = np.minimum.reduceat(
        masked_points, starts[nonempty], axis=0
    )
    hi[partial[nonempty]] = np.maximum.reduceat(
        masked_points, starts[nonempty], axis=0
    )
    return lo, hi


def _classify_cell_pairs(
    bounds: tuple[np.ndarray, np.ndarray],
    cand_bounds: tuple[np.ndarray, np.ndarray],
    work_flat: np.ndarray,
    ncell_flat: np.ndarray,
    eps_sq: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Covered / excluded classification of (work cell, neighbor cell) pairs.

    ``bounds`` boxes the work cells' members; ``cand_bounds`` boxes the
    candidate side and may be restricted to the candidate point mask
    (empty boxes are ``(+inf, -inf)`` and always classify excluded).
    For each pair, accumulate the squared min and max distances between
    the two cells' point bounding boxes **with the same per-dimension
    operation order as the distance kernel** (``acc += delta * delta``).
    Because float rounding is monotone, every actual pair distance the
    kernel computes then satisfies
    ``min_sq <= sq <= max_sq`` at the float level, so:

    * ``max_sq <= eps_sq`` (covered) implies every member/candidate
      pair would pass the ``sq <= eps_sq`` test — count the whole cell
      population without computing a single distance;
    * ``min_sq > eps_sq`` (excluded) implies every pair would fail —
      drop the neighbor cell outright.

    The self pair is always covered (Lemma 1 via
    ``max_cell_gap_squared(0) == d``), independent of float slop in
    the box bounds.

    Returns:
        ``(covered, excluded)`` boolean masks over the flat pairs.
    """
    lo, hi = bounds
    cand_lo_all, cand_hi_all = cand_bounds
    n_pairs = work_flat.shape[0]
    min_sq = np.zeros(n_pairs, dtype=np.float64)
    max_sq = np.zeros(n_pairs, dtype=np.float64)
    for dim in range(lo.shape[1]):
        work_lo = lo[work_flat, dim]
        work_hi = hi[work_flat, dim]
        ncell_lo = cand_lo_all[ncell_flat, dim]
        ncell_hi = cand_hi_all[ncell_flat, dim]
        reach = np.maximum(work_hi - ncell_lo, ncell_hi - work_lo)
        max_sq += reach * reach
        gap = np.maximum(ncell_lo - work_hi, work_lo - ncell_hi)
        np.maximum(gap, 0.0, out=gap)
        min_sq += gap * gap
    covered = max_sq <= eps_sq
    covered |= work_flat == ncell_flat
    excluded = (min_sq > eps_sq) & ~covered
    return covered, excluded


def _plan_cell_jobs(
    grid: Grid,
    work_cells: np.ndarray,
    rows: tuple[np.ndarray, np.ndarray],
    candidate_cell_mask: np.ndarray | None,
    candidate_point_mask: np.ndarray | None,
    bounds: tuple[np.ndarray, np.ndarray] | Callable | None,
    eps_sq: float,
    counters: dict[str, int],
    settle_threshold: int | None = None,
    seed_self: bool = False,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    np.ndarray | None,
]:
    """Flat member/candidate index arrays for a set of cells, no loops.

    For every cell in ``work_cells`` gather (a) its member point
    indices and (b) the member point indices of its neighboring cells
    (optionally restricted to cells where ``candidate_cell_mask`` holds
    and points where ``candidate_point_mask`` holds).  ``rows`` holds
    the work cells' adjacency rows (:meth:`_CellAdjacency.rows`).

    With ``seed_self``, the work cell's own (mask-restricted)
    population is credited to ``base_counts`` and the self pair never
    reaches the distance kernel: Lemma 1 counts same-cell pairs as
    neighbors *by definition*, independent of float slop in the kernel
    (see ``repro.core.reference`` for the contract).  Both the
    box-tested and the untested paths rely on this so their counts
    agree bit-for-bit with the reference and with the dense-cell
    shortcut.

    ``bounds`` is the ``(lo, hi)`` cell bounds to box-test with,
    ``None`` for no box tests, or a hook (:meth:`_BoxTests.round`)
    called with the point pairs behind the non-self cell pairs and
    their number, which returns either.  With bounds, neighbor cells
    are first classified by :func:`_classify_cell_pairs`: covered
    cells contribute their (mask-restricted) population to
    ``base_counts`` and excluded cells are dropped, both without
    reaching the distance kernel; only boundary cells survive into the
    candidate arrays.  With
    ``settle_threshold``, a work cell whose ``base_counts`` already
    reaches the threshold is settled entirely — none of its remaining
    candidates are gathered, because the verdict for every member is
    known: threshold ``min_pts`` in the core round proves every member
    core, threshold ``1`` in the outlier round (one covered core
    candidate) proves every member covered.

    Returns:
        ``(members_flat, m_sizes, cands_flat, c_sizes, base_counts,
        settled)`` with one ``m_sizes`` / ``c_sizes`` / ``base_counts``
        entry per work cell; ``settled`` is a per-work-cell mask (or
        ``None`` when ``settle_threshold`` is ``None``).
    """
    order, member_starts = grid.members_csr()
    ncell_flat, adj_lens = rows
    if candidate_cell_mask is not None:
        keep = candidate_cell_mask[ncell_flat]
        # Per-work-cell surviving neighbor counts.
        adj_lens = _segment_sums(keep.astype(np.int64), adj_lens)
        ncell_flat = ncell_flat[keep]
    n_work = work_cells.shape[0]
    m_sizes = grid.counts[work_cells]
    base_counts = np.zeros(n_work, dtype=np.int64)
    settled: np.ndarray | None = None
    if candidate_point_mask is not None:
        cell_cand_counts = _masked_cell_counts(grid, candidate_point_mask)
    else:
        cell_cand_counts = grid.counts
    if seed_self and ncell_flat.size:
        source = np.repeat(np.arange(n_work, dtype=np.int64), adj_lens)
        self_pair = ncell_flat == work_cells[source]
        if self_pair.any():
            self_pops = cell_cand_counts[ncell_flat[self_pair]]
            base_counts += np.bincount(
                source[self_pair], weights=self_pops, minlength=n_work
            ).astype(np.int64)
            _bump(
                counters, "pairs_self_covered",
                int((m_sizes[source[self_pair]] * self_pops).sum()),
            )
            keep = ~self_pair
            adj_lens = _segment_sums(keep.astype(np.int64), adj_lens)
            ncell_flat = ncell_flat[keep]
    if callable(bounds) and ncell_flat.size:
        # The round's box-test decision, from the pairs gathered above.
        row_pops = _segment_sums(cell_cand_counts[ncell_flat], adj_lens)
        bounds = bounds(int(m_sizes @ row_pops), ncell_flat.size)
    if bounds is not None and ncell_flat.size:
        if candidate_point_mask is not None:
            # Candidate-side boxes shrink to the masked (core) points:
            # tighter boxes cover and exclude strictly more cell pairs.
            # Only the neighbor cells' rows are read.
            read = np.zeros(grid.n_cells, dtype=bool)
            read[ncell_flat] = True
            cand_bounds = _masked_cell_bounds(
                grid, candidate_point_mask, cell_cand_counts,
                np.flatnonzero(read), bounds,
            )
        else:
            cand_bounds = bounds
        source = np.repeat(np.arange(n_work, dtype=np.int64), adj_lens)
        covered, excluded = _classify_cell_pairs(
            bounds, cand_bounds, work_cells[source], ncell_flat, eps_sq
        )
        cand_pops = cell_cand_counts[ncell_flat]
        base_counts = base_counts + np.bincount(
            source[covered], weights=cand_pops[covered], minlength=n_work
        ).astype(np.int64)
        _bump(
            counters, "pairs_skipped_covered",
            int((m_sizes[source[covered]] * cand_pops[covered]).sum()),
        )
        _bump(
            counters, "pairs_skipped_excluded",
            int((m_sizes[source[excluded]] * cand_pops[excluded]).sum()),
        )
        drop = covered | excluded
        if settle_threshold is not None:
            settled = base_counts >= settle_threshold
            _bump(counters, "cells_settled_covered", int(settled.sum()))
            # Settled cells need no boundary checks at all: the covered
            # contributions alone decide every member's verdict.
            settled_boundary = settled[source] & ~drop
            _bump(
                counters, "pairs_skipped_covered",
                int(
                    (
                        m_sizes[source[settled_boundary]]
                        * cand_pops[settled_boundary]
                    ).sum()
                ),
            )
            drop |= settled[source]
        keep = ~drop
        adj_lens = _segment_sums(keep.astype(np.int64), adj_lens)
        ncell_flat = ncell_flat[keep]
    elif settle_threshold is not None:
        settled = np.zeros(n_work, dtype=bool)
    # Candidate points: the members of every (surviving) neighbor cell.
    cand_per_ncell = grid.counts[ncell_flat]
    cands_flat = order[
        _flat_ranges(member_starts[ncell_flat], cand_per_ncell)
    ]
    c_sizes = _segment_sums(cand_per_ncell, adj_lens)
    if candidate_point_mask is not None:
        keep = candidate_point_mask[cands_flat]
        # Recompute per-work-cell candidate counts under the filter:
        # expand each neighbor-cell run to points, then segment by cell.
        c_sizes = _segment_sums(keep.astype(np.int64), c_sizes)
        cands_flat = cands_flat[keep]
    # Members of the work cells themselves.
    members_flat = order[_flat_ranges(member_starts[work_cells], m_sizes)]
    return members_flat, m_sizes, cands_flat, c_sizes, base_counts, settled


class VectorizedEngine:
    """Exact DBSCOUT on a single machine using NumPy bulk operations.

    Args:
        kernel: Distance-kernel tier: ``"auto"`` (default; compiled C
            when a compiler is available, else NumPy), ``"numpy"``,
            ``"c"``, or a :class:`~repro.core.kernels.Kernel`
            instance.  Labels are bit-identical for every choice; an
            unavailable C kernel falls back to NumPy with a
            ``kernel.fallback`` metric, never an error.

    Whether a round box-tests its cell pairs is decided per round from
    the plan's pair density and the resolved kernel
    (``BOX_TEST_MIN_PAIR_DENSITY``); the run record's context carries
    each round's ``box_tests.<round>`` and ``pair_density.<round>``.
    The adjacency comes from the grid tree at d >=
    ``TREE_PLANNER_MIN_DIMS`` and from stencil range probes below; the
    context's ``cell_planner`` names the planner that ran.  Labels are
    identical either way.
    """

    name = "vectorized"

    #: Pins every round's box-test decision (``True``/``False``) for
    #: parity tests, the fuzzer's variants and ablations; ``None``
    #: applies the per-round rule.
    _box_tests: bool | None = None

    #: Pins the adjacency planner (``"stencil"`` or ``"tree"``) for
    #: parity tests, the fuzzer's variants and ablations; ``None``
    #: applies the ``TREE_PLANNER_MIN_DIMS`` rule.
    _cell_planner: str | None = None

    def __init__(self, kernel: str | Kernel | None = "auto") -> None:
        self.kernel = normalize_kernel(kernel)

    def _resolve_planner(self, n_dims: int) -> str:
        if self._cell_planner is not None:
            return self._cell_planner
        return "tree" if n_dims >= TREE_PLANNER_MIN_DIMS else "stencil"

    def detect(
        self, points: np.ndarray, eps: float, min_pts: int
    ) -> DetectionResult:
        """Run the full DBSCOUT pipeline and return the detection result."""
        array = validate_points(points)
        eps, min_pts = validate_parameters(eps, min_pts)
        n_points = array.shape[0]
        if n_points == 0:
            return DetectionResult(
                n_points=0,
                outlier_mask=np.zeros(0, dtype=bool),
                core_mask=np.zeros(0, dtype=bool),
            )

        counters = {
            "distance_computations": 0,
            "pruned_cells": 0,
            "pairs_self_covered": 0,
            "pairs_skipped_covered": 0,
            "pairs_skipped_excluded": 0,
            "cells_settled_covered": 0,
        }
        kernel = resolve_kernel(self.kernel, counters)
        planner = self._resolve_planner(array.shape[1])
        recorder = RunRecorder(
            engine=self.name,
            params={"eps": eps, "min_pts": min_pts},
            context={
                "engine": self.name,
                "kernel": kernel.name,
                "cell_planner": planner,
            },
        )
        with recorder.activate():
            with recorder.span("grid"):
                grid = Grid(array, eps)
                stencil = NeighborStencil(grid.n_dims)

            with recorder.span("dense_cell_map"):
                with recorder.span("adjacency"):
                    adjacency = _CellAdjacency(
                        grid, stencil, planner=planner, counters=counters
                    )
                dense_cells = grid.counts >= min_pts
            box_tests = _BoxTests(
                grid, kernel.name, self._box_tests, recorder.span
            )

            with recorder.span("core_points"):
                core_mask = self._find_core_points(
                    array, grid, adjacency, dense_cells, eps, min_pts,
                    counters, bounds=box_tests.round("core_points"),
                    kernel=kernel,
                )

            with recorder.span("core_cell_map"):
                cell_is_core = self._core_cell_map(
                    grid, dense_cells, core_mask
                )

            with recorder.span("outliers"):
                outlier_mask = self._find_outliers(
                    array, grid, adjacency, cell_is_core, core_mask, eps,
                    counters, bounds=box_tests.round("outliers"),
                    kernel=kernel,
                )

        recorder.metrics.merge(counters, namespace="engine")
        recorder.add_context(
            **box_tests.context,
            n_cells=grid.n_cells,
            n_dense_cells=int(dense_cells.sum()),
            n_core_cells=int(cell_is_core.sum()),
            k_d=stencil.k_d,
            max_cell_population=int(grid.counts.max()),
        )
        record = recorder.finish(n_points=n_points, n_dims=array.shape[1])
        return DetectionResult(
            n_points=n_points,
            outlier_mask=outlier_mask,
            core_mask=core_mask,
            timings=record.timing_breakdown(),
            stats=record.flat_stats(),
            record=record,
        )

    def classify(self, model, points: np.ndarray) -> np.ndarray:
        """Exact out-of-sample labels against a fitted ``CoreModel``.

        Delegates to :meth:`repro.core.classify.CoreModel.classify`
        with this engine's kernel selection (the distance contract is
        shared), so labels are bit-identical to :meth:`detect` on the
        training data.
        """
        return model.classify(points, kernel=self.kernel)

    @staticmethod
    def _find_core_points(
        array: np.ndarray,
        grid: Grid,
        adjacency: _CellAdjacency,
        dense_cells: np.ndarray,
        eps: float,
        min_pts: int,
        counters: dict[str, int],
        *,
        bounds: tuple[np.ndarray, np.ndarray] | Callable | None = None,
        kernel: Kernel | None = None,
        work_cells: np.ndarray | None = None,
    ) -> np.ndarray:
        """Core-point identification (Algorithm 3, both branches).

        With ``work_cells``, only the members of those cells (and of
        every dense cell) are decided; ``adjacency`` then needs rows
        only for those cells.  ``bounds`` goes to
        :func:`_plan_cell_jobs`: cell bounds, a box-test hook, or
        ``None`` for no box tests.
        """
        kernel = kernel if kernel is not None else resolve_kernel("numpy")
        eps_sq = eps * eps
        core_mask = np.zeros(grid.n_points, dtype=bool)
        core_mask[dense_cells[grid.point_cell]] = True  # Lemma 1 shortcut
        if work_cells is None:
            work = np.flatnonzero(~dense_cells)
        else:
            work = work_cells[~dense_cells[work_cells]]
        if work.size == 0:
            return core_mask
        # Pruning (Sec. III-G2): a cell whose whole neighborhood cannot
        # reach min_pts points has no core members — no distances needed.
        ncell_flat, adj_lens = adjacency.rows(work)
        neighborhood_pop = _segment_sums(grid.counts[ncell_flat], adj_lens)
        pruned = neighborhood_pop < min_pts
        counters["pruned_cells"] += int(pruned.sum())
        if pruned.all():
            return core_mask
        if pruned.any():
            # The plan takes the surviving cells' rows from this gather.
            ncell_flat = ncell_flat[np.repeat(~pruned, adj_lens)]
            adj_lens = adj_lens[~pruned]
            work = work[~pruned]
        # A work cell whose covered neighbor populations alone reach
        # min_pts is settled: every member is core with no distances.
        members_flat, m_sizes, cands_flat, c_sizes, base_counts, _ = (
            _plan_cell_jobs(
                grid, work, (ncell_flat, adj_lens), None, None, bounds,
                eps_sq, counters, settle_threshold=min_pts, seed_self=True,
            )
        )
        counts = kernel.segmented_pair_counts(
            array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
            counters,
        )
        counts = counts + np.repeat(base_counts, m_sizes)
        core_mask[members_flat[counts >= min_pts]] = True
        return core_mask

    @staticmethod
    def _core_cell_map(
        grid: Grid, dense_cells: np.ndarray, core_mask: np.ndarray
    ) -> np.ndarray:
        """Per-cell flag: the cell is dense or contains a core point."""
        cell_is_core = dense_cells.copy()
        cell_is_core[grid.point_cell[core_mask]] = True
        return cell_is_core

    @staticmethod
    def _find_outliers(
        array: np.ndarray,
        grid: Grid,
        adjacency: _CellAdjacency,
        cell_is_core: np.ndarray,
        core_mask: np.ndarray,
        eps: float,
        counters: dict[str, int],
        *,
        bounds: tuple[np.ndarray, np.ndarray] | Callable | None = None,
        kernel: Kernel | None = None,
        work_cells: np.ndarray | None = None,
    ) -> np.ndarray:
        """Outlier identification (Algorithm 5, both branches).

        With ``work_cells``, only the members of those cells are
        decided; ``adjacency`` then needs rows only for those cells.
        ``bounds`` is as in :meth:`_find_core_points`.
        """
        kernel = kernel if kernel is not None else resolve_kernel("numpy")
        eps_sq = eps * eps
        outlier_mask = np.zeros(grid.n_points, dtype=bool)
        if work_cells is None:
            work = np.flatnonzero(~cell_is_core)
        else:
            work = work_cells[~cell_is_core[work_cells]]
        if work.size == 0:
            return outlier_mask
        # Candidates are core points of neighboring core cells; a work
        # cell with zero candidates gets zero counts — all outliers
        # (the O_ncn branch of Algorithm 5, handled uniformly).  A work
        # cell settled by a covered core cell gets positive base counts
        # and skips the distance kernel entirely.
        members_flat, m_sizes, cands_flat, c_sizes, base_counts, _ = (
            _plan_cell_jobs(
                grid, work, adjacency.rows(work),
                candidate_cell_mask=cell_is_core,
                candidate_point_mask=core_mask,
                bounds=bounds,
                eps_sq=eps_sq,
                counters=counters,
                settle_threshold=1,
                seed_self=True,
            )
        )
        counts = kernel.segmented_pair_counts(
            array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
            counters,
        )
        counts = counts + np.repeat(base_counts, m_sizes)
        outlier_mask[members_flat[counts == 0]] = True
        return outlier_mask


def detect(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    kernel: str | Kernel | None = "auto",
) -> DetectionResult:
    """Convenience wrapper: run the vectorized engine on ``points``."""
    return VectorizedEngine(kernel=kernel).detect(points, eps, min_pts)
