"""``CellIndex``: the one packed-key cell index, against a dictionary loop.

Every probe must return exactly the pairs, in exactly the order, of a
loop that shifts each query cell by each stencil offset and looks the
result up in a dictionary of the indexed cells — for packed and
dictionary (> 62-bit) indexes, for query cells inside and far outside
the indexed box, and for every probe budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cellindex import CellIndex
from repro.core.neighbors import NeighborStencil


def _reference(cells, offsets, rows):
    """(sources, hits) by offset, then row; and find() by lookup."""
    lookup = {cell: i for i, cell in enumerate(map(tuple, cells.tolist()))}
    row_cells = list(map(tuple, rows.tolist()))
    sources, hits = [], []
    for offset in map(tuple, offsets.tolist()):
        for source, cell in enumerate(row_cells):
            hit = lookup.get(tuple(c + o for c, o in zip(cell, offset)))
            if hit is not None:
                sources.append(source)
                hits.append(hit)
    found = [lookup.get(cell, -1) for cell in row_cells]
    return sources, hits, found


def _random_cells(rng, n_cells, n_dims, span):
    cells = rng.integers(-span, span, size=(n_cells, n_dims))
    return np.unique(cells, axis=0)


def _queries(rng, cells, n_dims, far):
    """Indexed cells, their neighbors, strangers and far-away cells."""
    near = cells[rng.choice(cells.shape[0], 20)] + rng.integers(
        -3, 4, size=(20, n_dims)
    )
    return np.vstack(
        [
            cells[:10],
            near,
            rng.integers(-far, far, size=(10, n_dims)),
        ]
    )


def _assert_matches(index, cells, offsets, rows, budget):
    sources, hits = index.probe(rows, budget)
    ref_sources, ref_hits, ref_found = _reference(cells, offsets, rows)
    assert sources.dtype == np.int64 and hits.dtype == np.int64
    assert sources.tolist() == ref_sources
    assert hits.tolist() == ref_hits
    assert index.find(rows).tolist() == ref_found


@pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
@pytest.mark.parametrize("budget", [1, 13, 4_000_000])
def test_packed_probe_matches_loop(n_dims, budget):
    rng = np.random.default_rng(n_dims)
    cells = _random_cells(rng, 200, n_dims, span=6)
    offsets = NeighborStencil(n_dims).offsets
    index = CellIndex(cells, offsets)
    assert index.packed
    rows = _queries(rng, cells, n_dims, far=2**40)
    _assert_matches(index, cells, offsets, rows, budget)


@pytest.mark.parametrize("n_dims", [2, 3])
def test_dictionary_probe_matches_loop(n_dims):
    # Two blobs 2^40 cells apart per dimension: the widened box needs
    # more than 62 bits, so the index keeps a dictionary.
    rng = np.random.default_rng(7)
    blob = _random_cells(rng, 60, n_dims, span=5)
    cells = np.vstack([blob, blob + 2**40])
    offsets = NeighborStencil(n_dims).offsets
    index = CellIndex(cells, offsets)
    assert not index.packed
    rows = np.vstack(
        [
            _queries(rng, cells, n_dims, far=2**50),
            blob[:5] + 2**40 + 1,
        ]
    )
    _assert_matches(index, cells, offsets, rows, budget=7)


def test_out_of_box_rows_never_match():
    cells = np.array([[0, 0], [1, 0], [5, 5]], dtype=np.int64)
    offsets = NeighborStencil(2).offsets
    index = CellIndex(cells, offsets)
    reach = int(np.abs(offsets).max())
    assert index.lo.tolist() == [-reach, -reach]
    assert index.hi.tolist() == [5 + reach, 5 + reach]
    rows = np.array([[-reach - 1, 0], [0, 6 + reach], [2**61, -(2**61)]])
    sources, hits = index.probe(rows, budget=100)
    assert sources.size == 0 and hits.size == 0
    assert index.find(rows).tolist() == [-1, -1, -1]


def test_empty_index():
    offsets = NeighborStencil(3).offsets
    index = CellIndex(np.empty((0, 3), dtype=np.int64), offsets)
    rows = np.zeros((4, 3), dtype=np.int64)
    sources, hits = index.probe(rows, budget=100)
    assert sources.size == 0 and hits.size == 0
    assert index.find(rows).tolist() == [-1] * 4
    assert index.n_cells == 0
