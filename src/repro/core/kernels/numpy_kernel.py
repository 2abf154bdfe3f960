"""Pure-NumPy implementation of the pair-counting kernel contract.

This is the vectorized engine's original hot loop, extracted behind
the :class:`~repro.core.kernels.base.Kernel` interface so the compiled
tier can slot in beside it.  Cells are processed in batches of up to
``pair_budget`` point pairs (:class:`NumpyKernel` uses
``DEFAULT_PAIR_BUDGET``) with a handful of large vectorized operations
(gather, fused squared distance, ``add.reduceat`` segment sums),
avoiding per-cell Python overhead on sparse grids with many tiny
cells.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import DEFAULT_PAIR_BUDGET, Kernel

__all__ = ["NumpyKernel", "segmented_pair_counts"]


def segmented_pair_counts(
    array: np.ndarray,
    members_flat: np.ndarray,
    m_sizes: np.ndarray,
    cands_flat: np.ndarray,
    c_sizes: np.ndarray,
    eps_sq: float,
    counters: dict[str, int],
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> np.ndarray:
    """Count, per target point, candidates within ``sqrt(eps_sq)``.

    Inputs are the flat per-cell member/candidate arrays produced by
    the engines' cell planners.  A cell with zero candidates
    contributes zero counts for all its members.  ``pair_budget``
    bounds the pairs of one batch; counts are identical for every
    value, so tests pass small budgets to force many batches.

    Returns:
        Counts aligned with ``members_flat``.
    """
    n_cells = m_sizes.shape[0]
    counts_out = np.zeros(members_flat.shape[0], dtype=np.int64)
    if n_cells == 0 or members_flat.shape[0] == 0:
        return counts_out
    member_offsets = np.concatenate(([0], np.cumsum(m_sizes)))
    cand_offsets = np.concatenate(([0], np.cumsum(c_sizes)))
    cum_pairs = np.cumsum(m_sizes * c_sizes)
    n_dims = array.shape[1]
    start_cell = 0
    while start_cell < n_cells:
        base = int(cum_pairs[start_cell - 1]) if start_cell else 0
        end_cell = (
            int(np.searchsorted(cum_pairs, base + pair_budget, side="left"))
            + 1
        )
        end_cell = min(max(end_cell, start_cell + 1), n_cells)
        m_sz = m_sizes[start_cell:end_cell]
        c_sz = c_sizes[start_cell:end_cell]
        members = members_flat[
            member_offsets[start_cell] : member_offsets[end_cell]
        ]
        cands = cands_flat[
            cand_offsets[start_cell] : cand_offsets[end_cell]
        ]
        # Each member of cell j owns one contiguous run of c_j pairs.
        run_lengths = np.repeat(c_sz, m_sz)
        total_pairs = int(run_lengths.sum())
        if total_pairs == 0:
            start_cell = end_cell
            continue
        target_idx = np.repeat(members, run_lengths)
        cand_local_start = np.repeat(
            np.concatenate(([0], np.cumsum(c_sz)[:-1])), m_sz
        )
        run_starts = np.concatenate(([0], np.cumsum(run_lengths)))
        pos_in_run = np.arange(total_pairs, dtype=np.int64) - np.repeat(
            run_starts[:-1], run_lengths
        )
        cand_idx = cands[
            np.repeat(cand_local_start, run_lengths) + pos_in_run
        ]
        sq = np.zeros(total_pairs, dtype=np.float64)
        for dim in range(n_dims):
            delta = array[target_idx, dim] - array[cand_idx, dim]
            sq += delta * delta
        counters["distance_computations"] = (
            counters.get("distance_computations", 0) + total_pairs
        )
        within = (sq <= eps_sq).astype(np.int64)
        per_member = np.zeros(run_lengths.shape[0], dtype=np.int64)
        nonempty = run_lengths > 0
        if nonempty.any():
            per_member[nonempty] = np.add.reduceat(
                within, run_starts[:-1][nonempty]
            )
        counts_out[
            member_offsets[start_cell] : member_offsets[end_cell]
        ] = per_member
        start_cell = end_cell
    return counts_out


class NumpyKernel(Kernel):
    """The always-available reference implementation of the contract."""

    name = "numpy"

    def segmented_pair_counts(
        self,
        array: np.ndarray,
        members_flat: np.ndarray,
        m_sizes: np.ndarray,
        cands_flat: np.ndarray,
        c_sizes: np.ndarray,
        eps_sq: float,
        counters: dict[str, int],
    ) -> np.ndarray:
        return segmented_pair_counts(
            array, members_flat, m_sizes, cands_flat, c_sizes, eps_sq,
            counters,
        )
