"""Approximate quality tier: subsampled density with exactness guardrails.

The exact engines answer "is this point an outlier?" with a proof; the
approximate tier answers faster by deliberately *undercounting*
density, in two composable ways:

* **DBSCAN++-style core subsampling** (Jang & Jiang).  Density checks
  run only for a seeded sample of the points — uniform or greedy
  K-center — while the candidate side stays complete, so a sampled
  point's neighbor count is its exact count.  Non-sampled points are
  then labeled by proximity to the sampled cores through the existing
  kernel tier (the unchanged exact outlier round).
* **sDBSCAN-style random-projection prefilter** (Pham et al.).  Unit
  random projections contract distances (``|<u, x - y>| <= ||x - y||``),
  so a (work cell, neighbor cell) pair whose projected intervals are
  separated by more than ``rp_margin * eps`` on any projection cannot
  contain a neighbor pair; such cell pairs are dropped before the
  distance kernel runs.  The filter plugs into ``_plan_cell_jobs`` and
  therefore composes with both the stencil and grid-tree planners.

Both mechanisms only *remove* neighbor evidence, which yields the
tier's guardrail: every approximate core point is an exact core point,
hence every exact outlier is also flagged by the approximate run —
**outlier recall against the exact engine is 1.0 by construction**,
and precision is the metric a preset trades for speed.

That one-sided error makes honest self-reporting cheap.  Because the
approximate outlier set is a superset of the exact one, the exact
labels are recoverable by auditing only the flagged points: compute
exact core status for the members of cells adjacent to flagged cells,
then re-check each flagged point against those exact cores (a core
point within ``eps`` of a point always lives in a stencil-neighbor
cell — the same locality ``CoreModel.classify`` uses).  The engine
runs this audit by default and reports precision/recall/F1 versus the
exact labels through :mod:`repro.metrics` into the run record, under
the ``approx.*`` counter families declared in :mod:`repro.obs.names`.

Presets (``DBSCOUT(quality=...)``):

* ``"exact"`` — the default; routes to the unchanged exact engine.
* ``"balanced"`` — 50% uniform sample, RP prefilter on.
* ``"fast"`` — 20% uniform sample, RP prefilter on.

``sample_fraction=`` overrides the preset fraction; ``seed=`` makes
runs bit-identically reproducible.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.core.grid import Grid, validate_points
from repro.core.kernels import (
    Kernel,
    normalize_kernel,
    normalize_pair_budget,
    resolve_kernel,
)
from repro.core.neighbors import NeighborStencil
from repro.core.parallel import normalize_n_jobs
from repro.core.validation import validate_parameters
from repro.core.vectorized import (
    TREE_PLANNER_MIN_DIMS,
    VectorizedEngine,
    _bump,
    _CellAdjacency,
    _cell_bounds,
    _flat_ranges,
    _pair_counts,
    _plan_cell_jobs,
    _segment_sums,
    normalize_cell_planner,
)
from repro.exceptions import ParameterError
from repro.metrics import f1_score, precision_score, recall_score
from repro.obs import RunRecorder
from repro.types import DetectionResult

__all__ = [
    "ApproxEngine",
    "QUALITY_NAMES",
    "QUALITY_PRESETS",
    "SAMPLE_METHODS",
    "normalize_quality",
    "normalize_sample_fraction",
    "normalize_seed",
    "validate_quality_config",
]

#: Accepted ``quality=`` presets, in decreasing exactness.
QUALITY_NAMES = ("exact", "balanced", "fast")

#: Accepted ``sample_method=`` values for the approximate tier.
SAMPLE_METHODS = ("uniform", "kcenter")

#: Preset name -> default knob values for the approximate engine.
#: ``"exact"`` has no entry on purpose: the facade routes it to the
#: unchanged exact engine, never through this module.
QUALITY_PRESETS: dict[str, dict[str, Any]] = {
    "balanced": {"sample_fraction": 0.5, "rp_prefilter": True},
    "fast": {"sample_fraction": 0.2, "rp_prefilter": True},
}


def normalize_quality(quality: Any) -> str:
    """Validate a ``quality=`` preset name (``None`` means ``"exact"``).

    Raises:
        ParameterError: If the value is not one of :data:`QUALITY_NAMES`.
    """
    if quality is None:
        return "exact"
    if not isinstance(quality, str) or quality not in QUALITY_NAMES:
        raise ParameterError(
            f"quality must be one of {', '.join(QUALITY_NAMES)}, "
            f"got {quality!r}"
        )
    return quality


def normalize_sample_fraction(sample_fraction: Any) -> float:
    """Validate an explicit ``sample_fraction`` (must be in ``(0, 1]``).

    Raises:
        ParameterError: On non-numbers, bools, NaN, or values outside
            ``(0, 1]``.
    """
    if isinstance(sample_fraction, bool) or not isinstance(
        sample_fraction, (int, float, np.integer, np.floating)
    ):
        raise ParameterError(
            "sample_fraction must be a number in (0, 1], "
            f"got {sample_fraction!r}"
        )
    value = float(sample_fraction)
    if not (0.0 < value <= 1.0):  # also rejects NaN
        raise ParameterError(
            f"sample_fraction must be in (0, 1], got {sample_fraction!r}"
        )
    return value


def normalize_seed(seed: Any) -> int:
    """Validate a ``seed`` (``None`` means ``0``).

    Raises:
        ParameterError: On bools, non-integers, or negative values.
    """
    if seed is None:
        return 0
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ParameterError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    if seed < 0:
        raise ParameterError(
            f"seed must be a non-negative integer, got {seed!r}"
        )
    return int(seed)


def normalize_sample_method(sample_method: Any) -> str:
    """Validate a ``sample_method`` (``None`` means ``"uniform"``)."""
    if sample_method is None:
        return "uniform"
    if (
        not isinstance(sample_method, str)
        or sample_method not in SAMPLE_METHODS
    ):
        raise ParameterError(
            f"sample_method must be one of {', '.join(SAMPLE_METHODS)}, "
            f"got {sample_method!r}"
        )
    return sample_method


def validate_quality_config(config: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a quality config carried by a model/artifact.

    The serving path stores the fit's quality configuration in
    :attr:`repro.core.classify.CoreModel.metadata` (and therefore in
    the artifact header); this re-validates it on the way back in so a
    tampered or stale artifact cannot smuggle an invalid preset.

    Returns:
        The normalized config (only the recognized keys).

    Raises:
        ParameterError: On an invalid ``quality`` / ``sample_fraction``
            / ``seed`` / ``sample_method`` value.
    """
    normalized: dict[str, Any] = {}
    if "quality" in config:
        normalized["quality"] = normalize_quality(config["quality"])
    if config.get("sample_fraction") is not None:
        normalized["sample_fraction"] = normalize_sample_fraction(
            config["sample_fraction"]
        )
        if normalized.get("quality") == "exact":
            raise ParameterError(
                "quality config carries a sample_fraction but claims "
                "quality='exact'; exact fits are never subsampled"
            )
    if "seed" in config:
        normalized["seed"] = normalize_seed(config["seed"])
    if config.get("sample_method") is not None:
        normalized["sample_method"] = normalize_sample_method(
            config["sample_method"]
        )
    return normalized


def _greedy_kcenter(
    array: np.ndarray, n_sample: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy K-center sample indices (farthest-point traversal).

    O(k * n * d): starts from a seeded random point and repeatedly adds
    the point farthest from the current sample.  Spreads the sample
    over the data's extent, which keeps sparse regions represented at
    small fractions; the uniform sampler is the cheap default.
    """
    n_points = array.shape[0]
    chosen = np.empty(n_sample, dtype=np.int64)
    chosen[0] = int(rng.integers(n_points))
    best = np.sum((array - array[chosen[0]]) ** 2, axis=1)
    for rank in range(1, n_sample):
        chosen[rank] = int(np.argmax(best))
        delta = array - array[chosen[rank]]
        np.minimum(best, np.einsum("ij,ij->i", delta, delta), out=best)
    return np.sort(chosen)


class _RpPrefilter:
    """Random-projection cell-pair prefilter (sDBSCAN-style).

    Projects every point onto ``n_projections`` seeded unit vectors and
    keeps each cell's projected interval.  For a cell pair, the gap
    between the two intervals on any projection lower-bounds every
    member/candidate distance (projection onto a unit vector is a
    contraction), so a gap above ``rp_margin * eps`` drops the pair
    before the kernel.  Dropping pairs only removes neighbor evidence,
    preserving the tier's one-sided error direction.
    """

    def __init__(
        self,
        array: np.ndarray,
        grid: Grid,
        member_counts: np.ndarray,
        eps: float,
        n_projections: int,
        rp_margin: float,
        rng: np.random.Generator,
        counters: dict[str, int],
    ) -> None:
        n_dims = array.shape[1]
        directions = rng.normal(size=(n_projections, n_dims))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        # A zero draw is measure-zero but would break the contraction.
        norms[norms == 0.0] = 1.0
        directions /= norms
        projected = array @ directions.T  # (n, r)
        order, starts = grid.members_csr()
        ordered = projected[order]
        self.lo = np.minimum.reduceat(ordered, starts, axis=0)
        self.hi = np.maximum.reduceat(ordered, starts, axis=0)
        self.threshold = float(rp_margin) * float(eps)
        self._member_counts = member_counts
        self._cand_counts = grid.counts
        self._counters = counters

    def __call__(
        self, work_ids: np.ndarray, ncell_ids: np.ndarray
    ) -> np.ndarray:
        gap = np.maximum(
            self.lo[ncell_ids] - self.hi[work_ids],
            self.lo[work_ids] - self.hi[ncell_ids],
        )
        keep = ~(gap > self.threshold).any(axis=1)
        dropped = ~keep
        if dropped.any():
            _bump(
                self._counters, "rp_cell_pairs_pruned", int(dropped.sum())
            )
            _bump(
                self._counters, "rp_pairs_pruned",
                int(
                    (
                        self._member_counts[work_ids[dropped]]
                        * self._cand_counts[ncell_ids[dropped]]
                    ).sum()
                ),
            )
        return keep


class ApproxEngine:
    """Approximate DBSCOUT with a proven one-sided error direction.

    Args:
        quality: ``"balanced"`` or ``"fast"`` (``"exact"`` never
            reaches this engine — the :class:`~repro.DBSCOUT` facade
            routes it to the exact engine).
        sample_fraction: Overrides the preset's sample fraction
            (``(0, 1]``; ``1.0`` samples every point, reproducing the
            exact labels).
        seed: RNG seed for the sample and the projections; a fixed
            seed makes runs bit-identically reproducible.
        sample_method: ``"uniform"`` (default) or ``"kcenter"``
            (greedy farthest-point; O(k * n * d), for sparse-region
            coverage at small fractions).
        rp_prefilter: Overrides the preset's random-projection
            prefilter toggle.
        n_projections: Number of random unit projections (``>= 1``).
        rp_margin: Gap threshold multiplier on ``eps`` (``> 0``);
            values above 1 prune less aggressively.
        audit: Compute the exact outlier labels for the flagged set
            and report precision/recall/F1 vs the exact engine into
            the run record (on by default; the audit cost scales with
            the number of flagged points, not the dataset).
        n_jobs / kernel / pair_budget / cell_planner: The vectorized
            engine's options, identical semantics.  Every round of this
            engine box-tests its cell pairs.
    """

    name = "approx"

    def __init__(
        self,
        quality: str = "balanced",
        sample_fraction: float | None = None,
        seed: int | None = 0,
        sample_method: str | None = "uniform",
        rp_prefilter: bool | None = None,
        n_projections: int = 8,
        rp_margin: float = 1.0,
        audit: bool = True,
        n_jobs: int | None = 1,
        kernel: str | Kernel | None = "auto",
        pair_budget: int | None = None,
        cell_planner: str | None = "auto",
    ) -> None:
        self.quality = normalize_quality(quality)
        if self.quality == "exact":
            raise ParameterError(
                "quality='exact' is served by the exact engine; "
                "construct ApproxEngine with 'balanced' or 'fast'"
            )
        preset = QUALITY_PRESETS[self.quality]
        self.sample_fraction = (
            preset["sample_fraction"]
            if sample_fraction is None
            else normalize_sample_fraction(sample_fraction)
        )
        self.seed = normalize_seed(seed)
        self.sample_method = normalize_sample_method(sample_method)
        if rp_prefilter is None:
            self.rp_prefilter = bool(preset["rp_prefilter"])
        elif isinstance(rp_prefilter, (bool, np.bool_)):
            self.rp_prefilter = bool(rp_prefilter)
        else:
            raise ParameterError(
                f"rp_prefilter must be a bool, got {rp_prefilter!r}"
            )
        if (
            isinstance(n_projections, bool)
            or not isinstance(n_projections, (int, np.integer))
            or n_projections < 1
        ):
            raise ParameterError(
                f"n_projections must be a positive integer, "
                f"got {n_projections!r}"
            )
        self.n_projections = int(n_projections)
        if (
            isinstance(rp_margin, bool)
            or not isinstance(
                rp_margin, (int, float, np.integer, np.floating)
            )
            or not rp_margin > 0
        ):
            raise ParameterError(
                f"rp_margin must be a positive number, got {rp_margin!r}"
            )
        self.rp_margin = float(rp_margin)
        self.audit = bool(audit)
        self.n_jobs = normalize_n_jobs(n_jobs)
        self.kernel = normalize_kernel(kernel)
        self.pair_budget = normalize_pair_budget(pair_budget)
        self.cell_planner = normalize_cell_planner(cell_planner)

    def quality_config(self) -> dict[str, Any]:
        """The reproducibility config a fit carries into its model."""
        return {
            "quality": self.quality,
            "sample_fraction": self.sample_fraction,
            "seed": self.seed,
            "sample_method": self.sample_method,
        }

    def _resolve_planner(self, n_dims: int) -> str:
        if self.cell_planner == "auto":
            return "tree" if n_dims >= TREE_PLANNER_MIN_DIMS else "stencil"
        return self.cell_planner

    # ------------------------------------------------------------------

    def detect(
        self, points: np.ndarray, eps: float, min_pts: int
    ) -> DetectionResult:
        """Approximate DBSCOUT labels plus the audited quality report."""
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
        approx_counters: dict[str, int | float] = {}
        kernel = resolve_kernel(self.kernel, counters)
        planner = self._resolve_planner(array.shape[1])
        eps_sq = eps * eps
        recorder = RunRecorder(
            engine=self.name,
            params={"eps": eps, "min_pts": min_pts},
            context={
                "engine": self.name,
                "n_jobs": self.n_jobs,
                "kernel": kernel.name,
                "pair_budget": self.pair_budget,
                "cell_planner": planner,
                "quality": self.quality,
                "sample_fraction": self.sample_fraction,
                "sample_method": self.sample_method,
                "seed": self.seed,
                "rp_prefilter": self.rp_prefilter,
                "audit": self.audit,
            },
        )
        with recorder.activate():
            with recorder.span("grid"):
                grid = Grid(array, eps)
                stencil = NeighborStencil(grid.n_dims)

            with recorder.span("dense_cell_map"):
                adjacency = _CellAdjacency(
                    grid, stencil, planner=planner, counters=counters
                )
                dense_cells = grid.counts >= min_pts
                bounds = _cell_bounds(grid)

            with recorder.span("sample"):
                rng = np.random.default_rng(self.seed)
                sample_mask = self._sample(array, rng)
                approx_counters["sampled_points"] = int(sample_mask.sum())
                rp_filter = None
                if self.rp_prefilter:
                    member_counts = np.zeros(grid.n_cells, dtype=np.int64)
                    np.add.at(
                        member_counts, grid.point_cell[sample_mask], 1
                    )
                    rp_filter = _RpPrefilter(
                        array, grid, member_counts, eps,
                        self.n_projections, self.rp_margin, rng,
                        approx_counters,
                    )

            with recorder.span("core_points"):
                core_mask = self._sampled_core_points(
                    array, grid, adjacency, dense_cells, sample_mask,
                    eps_sq, min_pts, counters, bounds, kernel, rp_filter,
                )

            with recorder.span("core_cell_map"):
                cell_is_core = np.zeros(grid.n_cells, dtype=bool)
                cell_is_core[np.unique(grid.point_cell[core_mask])] = True

            with recorder.span("outliers"):
                # Non-sampled points are labeled by proximity to the
                # sampled cores via the unchanged exact outlier round.
                outlier_mask = VectorizedEngine._find_outliers(
                    array, grid, adjacency, cell_is_core, core_mask, eps,
                    counters, bounds=bounds, n_jobs=self.n_jobs,
                    kernel=kernel, pair_budget=self.pair_budget,
                )

            self.last_audit_mask_: np.ndarray | None = None
            if self.audit:
                with recorder.span("audit"):
                    # Kept on the engine so tests (and curious callers)
                    # can compare the audited exact labels pointwise.
                    self.last_audit_mask_ = self._audit(
                        array, grid, adjacency, dense_cells, outlier_mask,
                        eps_sq, min_pts, bounds, kernel, approx_counters,
                    )

        recorder.metrics.merge(counters, namespace="engine")
        recorder.metrics.merge(approx_counters, namespace="approx")
        recorder.add_context(
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
        """Out-of-sample labels against the fitted (approximate) model."""
        return model.classify(points, kernel=self.kernel)

    # ------------------------------------------------------------------

    def _sample(
        self, array: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Boolean mask of the seeded density-check sample."""
        n_points = array.shape[0]
        n_sample = int(np.ceil(self.sample_fraction * n_points))
        n_sample = min(max(n_sample, 1), n_points)
        mask = np.zeros(n_points, dtype=bool)
        if n_sample == n_points:
            mask[:] = True
        elif self.sample_method == "kcenter":
            mask[_greedy_kcenter(array, n_sample, rng)] = True
        else:
            mask[rng.choice(n_points, size=n_sample, replace=False)] = True
        return mask

    def _sampled_core_points(
        self,
        array: np.ndarray,
        grid: Grid,
        adjacency: _CellAdjacency,
        dense_cells: np.ndarray,
        sample_mask: np.ndarray,
        eps_sq: float,
        min_pts: int,
        counters: dict[str, int],
        bounds,
        kernel: Kernel,
        rp_filter,
    ) -> np.ndarray:
        """Exact core status of the sampled points only (DBSCAN++).

        The member side is restricted to the sample; the candidate side
        is the full dataset, so every sampled point's neighbor count —
        and therefore its core verdict — is exact.  The approximate
        core set is thus a subset of the exact one (modulo RP drops,
        which only undercount further), which is what makes the flagged
        outlier set a superset of the exact one.
        """
        core_mask = np.zeros(grid.n_points, dtype=bool)
        # Lemma 1 shortcut, restricted to sampled members: a sampled
        # point in a dense cell is an exact core with zero distances.
        core_mask[sample_mask & dense_cells[grid.point_cell]] = True
        cell_has_sample = np.zeros(grid.n_cells, dtype=bool)
        cell_has_sample[grid.point_cell[sample_mask]] = True
        work = np.flatnonzero(~dense_cells & cell_has_sample)
        if work.size == 0:
            return core_mask
        # Grouping-before-joining pruning (Sec. III-G2), with the full
        # populations — an exact upper bound on any member's count.
        adj_starts = adjacency._starts
        adj_lens = adj_starts[work + 1] - adj_starts[work]
        ncell_flat = adjacency._targets[
            _flat_ranges(adj_starts[work], adj_lens)
        ]
        neighborhood_pop = _segment_sums(grid.counts[ncell_flat], adj_lens)
        pruned = neighborhood_pop < min_pts
        counters["pruned_cells"] += int(pruned.sum())
        work = work[~pruned]
        if work.size == 0:
            return core_mask
        members_flat, m_sizes, cands_flat, c_sizes, base_counts, _ = (
            _plan_cell_jobs(
                grid, adjacency, work, None, None, bounds, eps_sq,
                counters, settle_threshold=min_pts, seed_self=True,
                member_mask=sample_mask, pair_filter=rp_filter,
            )
        )
        counts = _pair_counts(
            array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
            counters, self.n_jobs, kernel, self.pair_budget,
        )
        counts = counts + np.repeat(base_counts, m_sizes)
        core_mask[members_flat[counts >= min_pts]] = True
        return core_mask

    def _audit(
        self,
        array: np.ndarray,
        grid: Grid,
        adjacency: _CellAdjacency,
        dense_cells: np.ndarray,
        outlier_mask: np.ndarray,
        eps_sq: float,
        min_pts: int,
        bounds,
        kernel: Kernel,
        approx_counters: dict[str, int | float],
    ) -> np.ndarray:
        """Exact labels for the flagged set; quality scores as a side effect.

        Because the flagged set is a superset of the exact outliers,
        the full exact outlier mask equals "flagged AND no exact core
        within eps".  A rescuing core must live in a stencil-neighbor
        cell of the flagged point's cell, so it suffices to compute
        exact core status for the members of that cell ring and
        re-check only the flagged points against them.
        """
        audit_counters: dict[str, int] = {}
        exact_outlier = np.zeros(grid.n_points, dtype=bool)
        flagged_cells = np.unique(grid.point_cell[outlier_mask])
        if flagged_cells.size:
            adj_starts = adjacency._starts
            adj_lens = (
                adj_starts[flagged_cells + 1] - adj_starts[flagged_cells]
            )
            ring = np.unique(
                adjacency._targets[
                    _flat_ranges(adj_starts[flagged_cells], adj_lens)
                ]
            )
            ring_core = self._ring_core_points(
                array, grid, adjacency, dense_cells, ring, eps_sq,
                min_pts, bounds, kernel, audit_counters,
            )
            core_cells_mask = np.zeros(grid.n_cells, dtype=bool)
            core_cells_mask[np.unique(grid.point_cell[ring_core])] = True
            members_flat, m_sizes, cands_flat, c_sizes, base_counts, _ = (
                _plan_cell_jobs(
                    grid, adjacency, flagged_cells,
                    candidate_cell_mask=core_cells_mask,
                    candidate_point_mask=ring_core,
                    bounds=bounds, eps_sq=eps_sq, counters=audit_counters,
                    settle_threshold=1, seed_self=True,
                    member_mask=outlier_mask,
                )
            )
            counts = _pair_counts(
                array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
                audit_counters, self.n_jobs, kernel, self.pair_budget,
            )
            counts = counts + np.repeat(base_counts, m_sizes)
            exact_outlier[members_flat[counts == 0]] = True
            _bump(
                approx_counters, "audit_candidate_points",
                int(ring_core.sum()),
            )
        _bump(
            approx_counters, "audit_distance_computations",
            int(audit_counters.get("distance_computations", 0)),
        )
        n_flagged = int(outlier_mask.sum())
        n_exact = int(exact_outlier.sum())
        approx_counters["flagged_outliers"] = n_flagged
        approx_counters["exact_outliers"] = n_exact
        approx_counters["false_outliers"] = n_flagged - n_exact
        approx_counters["precision"] = precision_score(
            exact_outlier, outlier_mask
        )
        approx_counters["recall"] = recall_score(exact_outlier, outlier_mask)
        approx_counters["f1"] = f1_score(exact_outlier, outlier_mask)
        return exact_outlier

    def _ring_core_points(
        self,
        array: np.ndarray,
        grid: Grid,
        adjacency: _CellAdjacency,
        dense_cells: np.ndarray,
        ring: np.ndarray,
        eps_sq: float,
        min_pts: int,
        bounds,
        kernel: Kernel,
        audit_counters: dict[str, int],
    ) -> np.ndarray:
        """Exact core status of every member of the ``ring`` cells.

        Identical machinery to the exact core round, restricted to the
        ring: full candidate populations, Lemma 1 self credit, the
        dense-cell shortcut, and the neighborhood-population pruning.
        """
        ring_core = np.zeros(grid.n_points, dtype=bool)
        order, starts = grid.members_csr()
        dense_ring = ring[dense_cells[ring]]
        if dense_ring.size:
            ring_core[
                order[
                    _flat_ranges(
                        starts[dense_ring], grid.counts[dense_ring]
                    )
                ]
            ] = True
        work = ring[~dense_cells[ring]]
        if work.size == 0:
            return ring_core
        adj_starts = adjacency._starts
        adj_lens = adj_starts[work + 1] - adj_starts[work]
        ncell_flat = adjacency._targets[
            _flat_ranges(adj_starts[work], adj_lens)
        ]
        neighborhood_pop = _segment_sums(grid.counts[ncell_flat], adj_lens)
        work = work[neighborhood_pop >= min_pts]
        if work.size == 0:
            return ring_core
        members_flat, m_sizes, cands_flat, c_sizes, base_counts, _ = (
            _plan_cell_jobs(
                grid, adjacency, work, None, None, bounds, eps_sq,
                audit_counters, settle_threshold=min_pts, seed_self=True,
            )
        )
        counts = _pair_counts(
            array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
            audit_counters, self.n_jobs, kernel, self.pair_budget,
        )
        counts = counts + np.repeat(base_counts, m_sizes)
        ring_core[members_flat[counts >= min_pts]] = True
        return ring_core
