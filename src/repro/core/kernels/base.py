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
  loop (``VectorizedEngine``, ``IncrementalDBSCOUT`` and
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

__all__ = ["DEFAULT_PAIR_BUDGET", "Kernel"]

#: Number of member x candidate point pairs one NumPy kernel batch
#: materializes at most.  Bounds its temporary arrays (~5
#: float64/int64 vectors of this length); the C kernel streams
#: pair-at-a-time and has no batches.
DEFAULT_PAIR_BUDGET = 4_000_000


class Kernel(ABC):
    """One implementation of the exact pair-counting contract.

    Attributes:
        name: Stable identifier (``"numpy"`` or ``"c"``) recorded in
            run records.
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
