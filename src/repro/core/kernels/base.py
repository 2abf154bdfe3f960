"""The pair-counting kernel contract shared by every engine.

All of DBSCOUT's hot loops reduce to one primitive: given flat
per-cell *member* and *candidate* point-index segments, count for each
member how many candidates lie within ``sqrt(eps_sq)``.  The contract
is exact at the float level and every implementation must reproduce it
bit-for-bit:

* squared distances are accumulated **per dimension, in order**::

      acc = 0.0
      for dim in range(d):
          delta = p[dim] - q[dim]
          acc += delta * delta          # round the multiply, then the
                                        # add — two IEEE ops per dim

  No reassociation, no FMA contraction, no pairwise/BLAS reduction —
  a differently-associated sum can round one ulp away and flip an
  exactly-at-eps comparison (see ``repro.core.reference`` and the
  ``kernel_accumulation_order`` witness in ``tests/qa/corpus``);
* a candidate is a neighbor iff ``acc <= eps_sq`` (Definition 2 at
  the float level);
* per-member counts are exact integers, so any batching of the cell
  segments reproduces the same result.

:class:`Kernel` captures that contract behind two entry points:

* :meth:`Kernel.segmented_pair_counts` — the engines' flat-batch hot
  loop (``VectorizedEngine``, the ``n_jobs`` pool workers, and
  ``CoreModel.classify`` all feed it);
* :meth:`Kernel.sq_dist` — the scalar form used by the distributed
  engine's record-at-a-time SparkLite tasks.

Implementations: :class:`repro.core.kernels.numpy_kernel.NumpyKernel`
(pure NumPy, always available) and
:class:`repro.core.kernels.c_kernel.CKernel` (a small C source file
compiled on first use with the system C compiler and loaded via
``ctypes``).  Selection and fallback live in
:func:`repro.core.kernels.resolve_kernel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["DEFAULT_PAIR_BUDGET", "Kernel", "normalize_pair_budget"]

#: Default number of member x candidate point pairs a kernel batch may
#: materialize at once.  Bounds the NumPy kernel's temporary arrays
#: (~5 float64/int64 vectors of this length); the C kernel streams
#: pair-at-a-time and ignores it.  Tunable per machine via
#: ``DBSCOUT(pair_budget=...)`` / ``--pair-budget``.
DEFAULT_PAIR_BUDGET = 4_000_000


def normalize_pair_budget(pair_budget: int | None) -> int:
    """Validate a ``pair_budget`` option and resolve it to a batch size.

    ``None`` means the default.  Positive integers are taken literally;
    booleans, zero, negatives, and non-integers are rejected (the same
    strictness as ``normalize_n_jobs``).

    Raises:
        ParameterError: If ``pair_budget`` is not a positive integer.
    """
    if pair_budget is None:
        return DEFAULT_PAIR_BUDGET
    if isinstance(pair_budget, bool) or not isinstance(
        pair_budget, (int, np.integer)
    ):
        raise ParameterError(
            f"pair_budget must be a positive integer or None, "
            f"got {pair_budget!r}"
        )
    pair_budget = int(pair_budget)
    if pair_budget < 1:
        raise ParameterError(
            f"pair_budget must be >= 1, got {pair_budget}"
        )
    return pair_budget


class Kernel(ABC):
    """One implementation of the exact pair-counting contract.

    Attributes:
        name: Stable identifier (``"numpy"`` or ``"c"``) recorded in
            run records and used by the process pool to re-resolve the
            kernel inside workers.
    """

    name: str = "abstract"

    @abstractmethod
    def segmented_pair_counts(
        self,
        array: np.ndarray,
        members_flat: np.ndarray,
        m_sizes: np.ndarray,
        cands_flat: np.ndarray,
        c_sizes: np.ndarray,
        eps_sq: float,
        counters: dict[str, int],
        pair_budget: int = DEFAULT_PAIR_BUDGET,
    ) -> np.ndarray:
        """Count, per member point, candidates within ``sqrt(eps_sq)``.

        Args:
            array: ``(n, d)`` C-contiguous float64 point coordinates.
            members_flat: Flat member point indices, cell-segmented.
            m_sizes: Per-cell member counts (one entry per cell).
            cands_flat: Flat candidate point indices, cell-segmented.
            c_sizes: Per-cell candidate counts (aligned with
                ``m_sizes``).
            eps_sq: Squared radius threshold, compared inclusively.
            counters: Receives ``distance_computations`` increments
                (the total number of member x candidate pairs tested).
            pair_budget: Batch-size hint; results are identical for
                every value.

        Returns:
            int64 counts aligned with ``members_flat``.
        """

    def sq_dist(
        self, p: tuple[float, ...], q: tuple[float, ...]
    ) -> float:
        """Scalar squared distance between two coordinate sequences.

        The default runs the contract's accumulation directly in
        Python — a left-to-right ``sum`` performs the identical IEEE
        operation sequence, so every implementation returns the same
        float.  Subclasses may override with a faster path.
        """
        return sum((a - b) * (a - b) for a, b in zip(p, q))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
