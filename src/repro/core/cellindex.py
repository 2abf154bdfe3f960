"""One sorted packed-key index over a set of epsilon-cells.

The stencil question "which cells of this set are neighbors
(Definition 8) of that cell?" — asked by the fit's cell adjacency
(``build_cell_adjacency``), by out-of-sample classification
(``CoreModel.classify``) and by the incremental engine's dirty-region
probes — is answered by one structure, built once per cell set and
probed many times:

* each cell's integer coordinates are packed into one int64 key, with
  a bit field per dimension sized to the set's bounding box widened by
  the stencil reach;
* the keys are sorted once, keeping the sort order so a hit maps back
  to a row of the set;
* packing is linear, so shifting a cell by a stencil offset shifts its
  key by a fixed *delta*: a probe packs each query cell once and finds
  all ``k_d`` shifted keys with ``searchsorted`` on ``key + delta``.

A query cell outside the widened box cannot have a neighbor in the set
and is dropped before packing, so probe keys never leave the fields'
range and a far-away query costs nothing.  Inside the box, two cells
that differ by ``v`` have equal keys only if ``v = 0``: every
component of ``v`` is smaller in magnitude than its field, which the
box guarantees.  When the widened box needs more than 62 bits, a key is
instead the cell's raw coordinate bytes (one fixed-width byte string
per cell): probes shift the coordinates by each offset and search
those keys the same way, with no per-cell Python loop.

Memory: 16 bytes per cell (the sorted keys and their order) on top of
the cell coordinates the caller already holds; ``8 d + 8`` bytes per
cell for byte-string keys.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CellIndex"]

#: Largest total key width; leaves headroom in int64 for key + delta.
_MAX_KEY_BITS = 62


class CellIndex:
    """Sorted packed-key index of a cell set, probed by stencil offsets.

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
            keys are the cells' raw coordinate bytes.
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
        if self.packed:
            # Field of dimension j starts at the summed widths of the
            # dimensions after it: key = sum_j (x_j - lo_j) << shift_j.
            shifts = np.cumsum([0] + bits[:0:-1])[::-1]
            self._weights = np.left_shift(1, shifts).astype(np.int64)
            self._deltas = self.offsets @ self._weights
        else:
            self._row_bytes = np.dtype((np.void, 8 * n_dims))
        keys = self._pack(self.cells)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    @property
    def n_cells(self) -> int:
        """Number of indexed cells."""
        return int(self.cells.shape[0])

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """Keys of in-box rows: packed int64s, or raw coordinate bytes."""
        if self.packed:
            return (rows - self.lo) @ self._weights
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        return rows.view(self._row_bytes).ravel()

    def _shifted(
        self, rows: np.ndarray, keys: np.ndarray, offsets: slice
    ) -> np.ndarray:
        """Keys of every row shifted by each of ``offsets``, offset-major."""
        if self.packed:
            return (keys[None, :] + self._deltas[offsets, None]).ravel()
        shifted = rows[None, :, :] + self.offsets[offsets, None, :]
        return self._pack(shifted.reshape(-1, rows.shape[1]))

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
            budget: At most about this many (row, offset) keys are
                searched at once (at least one offset per block), which
                bounds the probe's int64 scratch for any ``q * k``.

        Returns:
            ``(sources, hits)``: ``rows[sources[j]] + offsets[o]`` equals
            ``cells[hits[j]]`` for some offset ``o``.  Pairs come in
            offset-major order: by offset, then by row.
        """
        inside = self._inside(rows)
        if inside.shape[0] < rows.shape[0]:
            sources, hits = self._probe_inside(rows[inside], budget)
            return inside[sources], hits
        return self._probe_inside(rows, budget)

    def _probe_inside(
        self, rows: np.ndarray, budget: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`probe` for rows all inside the widened box."""
        n_rows = rows.shape[0]
        if n_rows == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        keys = self._pack(rows)
        all_sources: list[np.ndarray] = []
        all_hits: list[np.ndarray] = []
        block = max(1, budget // n_rows)
        for start in range(0, self.offsets.shape[0], block):
            candidate_keys = self._shifted(
                rows, keys, slice(start, start + block)
            )
            positions = np.searchsorted(self._sorted_keys, candidate_keys)
            np.minimum(positions, self.n_cells - 1, out=positions)
            hit = np.flatnonzero(
                self._sorted_keys[positions] == candidate_keys
            )
            all_sources.append(hit % n_rows)
            all_hits.append(self._order[positions[hit]])
        return np.concatenate(all_sources), np.concatenate(all_hits)
