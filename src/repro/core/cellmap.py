"""Cell maps: the broadcast cell-classification structures of DBSCOUT.

A :class:`CellMap` records, for every non-empty cell, its type:

* ``DENSE`` — the cell holds at least ``min_pts`` points, so every point
  inside it is a core point (Lemma 1);
* ``CORE`` — the cell is not dense but contains at least one core point,
  so none of its points is an outlier (Lemma 2);
* ``OTHER`` — anything else.

The paper builds this structure twice: a *dense cell map* after the
counting phase (Algorithm 2) and, after core-point identification, an
upgraded *core cell map* (Algorithm 4).  In the distributed engine the
map is broadcast to every executor; here it is an ordinary in-memory
mapping keyed by cell coordinate tuples.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping

from repro.core.neighbors import NeighborStencil
from repro.exceptions import ParameterError

__all__ = ["CellType", "CellMap"]

Cell = tuple[int, ...]


class CellType(enum.Enum):
    """Classification of a non-empty epsilon-cell."""

    DENSE = "dense"
    CORE = "core"
    OTHER = "other"

    @property
    def is_core(self) -> bool:
        """Dense cells are core cells (a dense cell holds core points)."""
        return self is not CellType.OTHER


class CellMap:
    """Mapping from cell coordinates to :class:`CellType`.

    Args:
        n_dims: Dimensionality of the grid (determines the stencil).
        stencil: Optional pre-built :class:`NeighborStencil` to share.
    """

    def __init__(self, n_dims: int, stencil: NeighborStencil | None = None) -> None:
        if stencil is not None and stencil.n_dims != n_dims:
            raise ParameterError(
                f"stencil dimensionality {stencil.n_dims} != n_dims {n_dims}"
            )
        self.n_dims = int(n_dims)
        self.stencil = stencil or NeighborStencil(n_dims)
        self._types: dict[Cell, CellType] = {}

    @classmethod
    def from_counts(
        cls,
        counts: Mapping[Cell, int],
        min_pts: int,
        stencil: NeighborStencil | None = None,
    ) -> "CellMap":
        """Build the dense cell map from per-cell point counts (Algorithm 2)."""
        if min_pts < 1:
            raise ParameterError(f"min_pts must be >= 1, got {min_pts!r}")
        cells = iter(counts)
        try:
            first = next(cells)
        except StopIteration:
            raise ParameterError(
                "cannot infer dimensionality from an empty count map; "
                "construct CellMap(n_dims) directly"
            ) from None
        cell_map = cls(len(first), stencil=stencil)
        for cell, n_points in counts.items():
            cell_map.set_type(
                cell, CellType.DENSE if n_points >= min_pts else CellType.OTHER
            )
        return cell_map

    def set_type(self, cell: Cell, cell_type: CellType) -> None:
        """Record (or overwrite) the type of a cell."""
        if len(cell) != self.n_dims:
            raise ParameterError(
                f"cell {cell!r} has {len(cell)} coordinates, expected {self.n_dims}"
            )
        self._types[tuple(int(c) for c in cell)] = cell_type

    def cell_type(self, cell: Cell) -> CellType | None:
        """Return the type of ``cell`` or ``None`` if the cell is empty."""
        return self._types.get(tuple(int(c) for c in cell))

    def mark_core(self, cell: Cell) -> None:
        """Upgrade a non-dense cell to ``CORE`` (Algorithm 4).

        Dense cells stay dense: they are already core cells, and keeping
        the distinction preserves the Lemma 1 shortcut.
        """
        key = tuple(int(c) for c in cell)
        if self._types.get(key) is not CellType.DENSE:
            self._types[key] = CellType.CORE

    def is_core_cell(self, cell: Cell) -> bool:
        """True if the cell is dense or was marked core."""
        cell_type = self.cell_type(cell)
        return cell_type is not None and cell_type.is_core

    def neighbors(self, cell: Cell) -> list[Cell]:
        """Non-empty neighbors of ``cell`` (itself included when non-empty)."""
        return [
            candidate
            for candidate in self.stencil.neighbors_of(cell)
            if candidate in self._types
        ]

    def core_neighbors(self, cell: Cell) -> list[Cell]:
        """Non-empty neighboring cells that are core (dense or marked core)."""
        return [
            candidate
            for candidate in self.stencil.neighbors_of(cell)
            if self._types.get(candidate, CellType.OTHER).is_core
        ]

    def cells_of_type(self, cell_type: CellType) -> Iterator[Cell]:
        """Iterate over the cells recorded with the given type."""
        return (cell for cell, t in self._types.items() if t is cell_type)

    def items(self) -> Iterable[tuple[Cell, CellType]]:
        """Iterate over (cell, type) pairs."""
        return self._types.items()

    def __contains__(self, cell: Cell) -> bool:
        return tuple(int(c) for c in cell) in self._types

    def __len__(self) -> int:
        return len(self._types)

    def __repr__(self) -> str:
        n_dense = sum(1 for t in self._types.values() if t is CellType.DENSE)
        n_core = sum(1 for t in self._types.values() if t is CellType.CORE)
        return (
            f"CellMap(n_cells={len(self._types)}, dense={n_dense}, "
            f"core={n_core}, other={len(self._types) - n_dense - n_core})"
        )
