"""One sorted-key index over a set of epsilon-cells, probed by ranges.

The stencil question "which cells of this set are neighbors
(Definition 8) of that cell?" — asked by the fit's cell adjacency
(``build_cell_adjacency``), by out-of-sample classification
(``CoreModel.classify``) and by the incremental engine's dirty-region
probes — is answered by one structure, built once per cell set and
probed many times:

* each cell's integer coordinates become one key whose order is the
  lexicographic order of the coordinates, the last axis lowest;
* the keys are sorted once, keeping the sort order so a hit maps back
  to a row of the set;
* the stencil offsets that share their first ``d - 1`` components form
  one contiguous *run* ``[a, b]`` on the last axis (25 runs for the
  125 offsets at d = 3), so the cells a run reaches from a query cell
  are exactly the sorted keys between the keys of its first and last
  cell: two ``searchsorted`` calls per (query cell, run) replace one
  lookup per offset.

A probe emits its pairs row by row and, within a row, in key order.
That is the order of the offsets themselves whenever the offset table
is lexicographic, as :class:`~repro.core.neighbors.NeighborStencil`'s
is, so callers can build CSR adjacency from a probe without sorting.

Keys are packed int64s when they fit: a bit field per dimension, sized
to the set's bounding box widened by the stencil reach, with the last
dimension in the lowest field.  A query cell outside the widened box
cannot have a neighbor in the set and is dropped before packing, so a
far-away query costs nothing.  Inside the box, every component of the
difference between an indexed cell and a query cell shifted by an
offset is smaller in magnitude than its field's radix, so comparing
their keys compares the cells lexicographically and the range between
a run's two keys holds exactly that run's cells.  When the widened box
needs more than 62 bits, a key is instead the cell's coordinates
written big-endian with the sign bit flipped, one fixed-width byte
string per cell: byte order is then coordinate order, and the same
range probe runs on those keys.

Memory: 16 bytes per cell (the sorted keys and their order) on top of
the cell coordinates the caller already holds; ``8 d + 8`` bytes per
cell for byte-string keys.  A probe works through its query cells in
blocks of ``budget // k`` rows (``k`` offsets): a block's two key
arrays and two position arrays hold one entry per (row, run), and its
expanded hit ranges at most one per (row, offset), so no scratch array
outgrows ``budget`` entries.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError

__all__ = ["CellIndex"]

#: Largest total key width; leaves headroom in int64 for shifted keys.
_MAX_KEY_BITS = 62

#: Flips the sign bit of an int64 viewed as uint64, so unsigned order
#: (and big-endian byte order) is signed order.
_SIGN_BIT = np.uint64(1 << 63)


def _flat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s_i, s_i + l_i)`` for all i, vectorized."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_starts = np.cumsum(lengths) - lengths
    return np.repeat(starts - run_starts, lengths) + np.arange(
        total, dtype=np.int64
    )


def _last_axis_runs(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last offset of each last-axis run, in lexicographic order.

    Raises:
        ParameterError: If the offsets sharing their first ``d - 1``
            components do not cover one contiguous interval of the last
            axis exactly once.
    """
    ordered = offsets[np.lexsort(offsets.T[::-1])]
    new_prefix = (ordered[1:, :-1] != ordered[:-1, :-1]).any(axis=1)
    if (np.diff(ordered[:, -1])[~new_prefix] != 1).any():
        raise ParameterError(
            "offsets that share their first d - 1 components must form "
            "one contiguous run on the last axis"
        )
    firsts = np.flatnonzero(np.concatenate(([True], new_prefix)))
    lasts = np.concatenate((firsts[1:], [ordered.shape[0]])) - 1
    return ordered[firsts], ordered[lasts]


class CellIndex:
    """Sorted-key index of a cell set, probed by stencil offset runs.

    Args:
        cells: ``(m, d)`` integer coordinates of unique cells.
        offsets: ``(k, d)`` stencil offsets a probe applies to each
            query cell (the zero offset included).

    Attributes:
        cells: The indexed ``(m, d)`` int64 cell coordinates.
        offsets: The ``(k, d)`` int64 stencil offsets.
        lo: ``(d,)`` lower corner of the box widened by the reach.
        hi: ``(d,)`` upper corner of the box widened by the reach.
        packed: ``True`` when the keys fit in 62 bits; ``False`` means
            keys are the cells' order-preserving coordinate bytes.

    Raises:
        ParameterError: If the offsets that share their first ``d - 1``
            components do not form one contiguous run on the last axis.
    """

    def __init__(self, cells: np.ndarray, offsets: np.ndarray) -> None:
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n_cells, n_dims = self.cells.shape
        reach = int(np.abs(self.offsets).max())
        if n_cells:
            self.lo = self.cells.min(axis=0) - reach
            self.hi = self.cells.max(axis=0) + reach
        else:  # an empty box: every query cell falls outside it
            self.lo = np.zeros(n_dims, dtype=np.int64)
            self.hi = np.full(n_dims, -1, dtype=np.int64)
        bits = [int(span).bit_length() for span in self.hi - self.lo + 1]
        self.packed = sum(bits) <= _MAX_KEY_BITS
        run_first, run_last = _last_axis_runs(self.offsets)
        if self.packed:
            # Field of dimension j starts at the summed widths of the
            # dimensions after it: key = sum_j (x_j - lo_j) << shift_j.
            shifts = np.cumsum([0] + bits[:0:-1])[::-1]
            self._weights = np.left_shift(1, shifts).astype(np.int64)
            # Packing is linear: a run's first and last keys are the
            # query key plus these deltas.
            self._run_first = run_first @ self._weights
            self._run_last = run_last @ self._weights
        else:
            self._run_first, self._run_last = run_first, run_last
            self._row_bytes = np.dtype((np.void, 8 * n_dims))
        keys = self._pack(self.cells)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    @property
    def n_cells(self) -> int:
        """Number of indexed cells."""
        return int(self.cells.shape[0])

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """Order-preserving keys of in-box rows: int64s or coordinate bytes."""
        if self.packed:
            return (rows - self.lo) @ self._weights
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        ordered = (rows.view(np.uint64) ^ _SIGN_BIT).astype(">u8")
        return ordered.view(self._row_bytes).ravel()

    def _run_keys(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keys of every row's first and last cell in each run, row-major."""
        if self.packed:
            keys = self._pack(rows)[:, None]
            return (
                (keys + self._run_first).ravel(),
                (keys + self._run_last).ravel(),
            )
        n_dims = rows.shape[1]
        return tuple(
            self._pack((rows[:, None, :] + run).reshape(-1, n_dims))
            for run in (self._run_first, self._run_last)
        )

    def _inside(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the rows inside the widened box."""
        return np.flatnonzero(
            ((rows >= self.lo) & (rows <= self.hi)).all(axis=1)
        )

    def find(self, rows: np.ndarray) -> np.ndarray:
        """Row of the index holding each query cell, ``-1`` if absent.

        Args:
            rows: ``(q, d)`` integer query cell coordinates.

        Returns:
            ``(q,)`` int64 indices into :attr:`cells`.
        """
        found = np.full(rows.shape[0], -1, dtype=np.int64)
        ids = self._inside(rows)
        if ids.shape[0] == 0:
            return found
        keys = self._pack(rows[ids])
        positions = np.searchsorted(self._sorted_keys, keys)
        np.minimum(positions, self.n_cells - 1, out=positions)
        hit = self._sorted_keys[positions] == keys
        found[ids[hit]] = self._order[positions[hit]]
        return found

    def probe(
        self, rows: np.ndarray, budget: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every (query cell, indexed neighbor cell) pair.

        Args:
            rows: ``(q, d)`` integer query cell coordinates.
            budget: Query cells are probed in blocks of
                ``max(1, budget // k)`` rows, which bounds every
                per-block scratch array at about ``budget`` entries for
                any ``q``.

        Returns:
            ``(sources, hits)``: ``rows[sources[j]] + offsets[o]`` equals
            ``cells[hits[j]]`` for some offset ``o``.  Pairs come row by
            row (``sources`` is non-decreasing) and, within a row, in
            lexicographic order of the hit cells, which is the order of
            their offsets in a lexicographic offset table.
        """
        ids = self._inside(rows)
        all_sources: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        all_hits: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        n_runs = self._run_first.shape[0]
        block = max(1, budget // self.offsets.shape[0])
        for start in range(0, ids.shape[0], block):
            block_ids = ids[start : start + block]
            first_keys, last_keys = self._run_keys(rows[block_ids])
            first = np.searchsorted(self._sorted_keys, first_keys, "left")
            lengths = np.searchsorted(self._sorted_keys, last_keys, "right")
            lengths -= first
            all_hits.append(self._order[_flat_ranges(first, lengths)])
            all_sources.append(
                np.repeat(block_ids, lengths.reshape(-1, n_runs).sum(axis=1))
            )
        return np.concatenate(all_sources), np.concatenate(all_hits)
