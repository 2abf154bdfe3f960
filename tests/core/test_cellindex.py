"""``CellIndex``: the one sorted-key cell index, against a dictionary loop.

Every probe must return exactly the pairs, in exactly the order, of a
loop that shifts each query cell by each stencil offset and looks the
result up in a dictionary of the indexed cells — for packed and
byte-string (> 62-bit) keys, for query cells inside and far outside
the indexed box, and for every probe budget.  The CSR adjacency built
from a probe (whole grid or a region of rows) must equal a walk of
each cell's stencil offsets in order, and an offset table the range
probe cannot serve must be rejected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cellindex import CellIndex
from repro.core.neighbors import NeighborStencil
from repro.core.vectorized import _CellAdjacency, build_cell_adjacency
from repro.exceptions import ParameterError


def _reference(cells, offsets, rows):
    """(sources, hits) by row, then offset; and find() by lookup."""
    lookup = {cell: i for i, cell in enumerate(map(tuple, cells.tolist()))}
    row_cells = list(map(tuple, rows.tolist()))
    sources, hits = [], []
    for source, cell in enumerate(row_cells):
        for offset in map(tuple, offsets.tolist()):
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


def _reference_adjacency(cells, offsets):
    """CSR adjacency by walking each cell's stencil offsets in order."""
    lookup = {cell: i for i, cell in enumerate(map(tuple, cells.tolist()))}
    targets, starts = [], [0]
    for cell in map(tuple, cells.tolist()):
        for offset in map(tuple, offsets.tolist()):
            hit = lookup.get(tuple(c + o for c, o in zip(cell, offset)))
            if hit is not None:
                targets.append(hit)
        starts.append(len(targets))
    return targets, starts


@pytest.mark.parametrize("n_dims", [1, 2, 3, 4, 5])
def test_cell_adjacency_matches_offset_walk(n_dims):
    # d = 4 is a perfect square, so its stencil has the +-3 ring.
    rng = np.random.default_rng(10 + n_dims)
    cells = _random_cells(rng, 60 if n_dims == 5 else 200, n_dims, span=4)
    stencil = NeighborStencil(n_dims)
    targets, starts = build_cell_adjacency(cells, stencil)
    ref_targets, ref_starts = _reference_adjacency(cells, stencil.offsets)
    assert targets.tolist() == ref_targets
    assert starts.tolist() == ref_starts


def test_wide_cell_adjacency_matches_offset_walk():
    # Blobs 2^41 cells apart on every axis, one at negative and one at
    # positive coordinates: the keys are order-preserving byte strings.
    rng = np.random.default_rng(5)
    blob = _random_cells(rng, 80, 3, span=4)
    cells = np.unique(np.vstack([blob - 2**40, blob + 2**40]), axis=0)
    stencil = NeighborStencil(3)
    assert not CellIndex(cells, stencil.offsets).packed
    targets, starts = build_cell_adjacency(cells, stencil)
    ref_targets, ref_starts = _reference_adjacency(cells, stencil.offsets)
    assert targets.tolist() == ref_targets
    assert starts.tolist() == ref_starts


@pytest.mark.parametrize("n_dims", [2, 3])
def test_region_rows_equal_full_adjacency_rows(n_dims):
    rng = np.random.default_rng(20 + n_dims)
    cells = _random_cells(rng, 300, n_dims, span=6)
    stencil = NeighborStencil(n_dims)
    index = CellIndex(cells, stencil.offsets)
    n_runs = index._run_first.shape[0]
    targets, starts = build_cell_adjacency(cells, stencil)
    rows = np.sort(rng.choice(index.n_cells, 40, replace=False))
    # A budget below the run count puts one query cell in each block.
    region = _CellAdjacency.region(index, rows, budget=n_runs - 1)
    for row in range(index.n_cells):
        expected = targets[starts[row] : starts[row + 1]]
        got = region.neighbors(row)
        assert got.tolist() == (expected.tolist() if row in rows else [])


def test_region_rejects_rows_out_of_order():
    rng = np.random.default_rng(3)
    cells = _random_cells(rng, 50, 2, span=5)
    index = CellIndex(cells, NeighborStencil(2).offsets)
    for rows in ([3, 1, 2], [1, 1, 2]):
        with pytest.raises(ValueError, match="ascending"):
            _CellAdjacency.region(index, np.array(rows), budget=100)


@pytest.mark.parametrize(
    "offsets",
    [
        [[0, 0], [0, 2]],  # a gap in the run
        [[0, 0], [0, 0], [0, 1]],  # a repeated offset
        [[-1, 0], [0, -1], [0, 0], [0, 1], [1, 1], [1, 3]],  # a late gap
    ],
)
def test_offsets_that_are_not_last_axis_runs_are_rejected(offsets):
    cells = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(ParameterError, match="contiguous run"):
        CellIndex(cells, np.array(offsets))


def test_shuffled_offset_table_probes_in_key_order():
    rng = np.random.default_rng(8)
    cells = _random_cells(rng, 100, 3, span=5)
    offsets = NeighborStencil(3).offsets
    shuffled = offsets[rng.permutation(offsets.shape[0])]
    expected = CellIndex(cells, offsets).probe(cells, 1_000)
    got = CellIndex(cells, shuffled).probe(cells, 1_000)
    assert got[0].tolist() == expected[0].tolist()
    assert got[1].tolist() == expected[1].tolist()
