"""Grid-tree candidate pruning for neighbor-cell enumeration.

The stencil planner (:func:`repro.core.vectorized.build_cell_adjacency`)
probes every non-empty cell against all ``k_d`` stencil offsets, one
range search per last-axis run of them.  ``k_d`` grows steeply with
dimensionality (Table I: 21, 147, 1433, ... before the boundary ring)
while real grids stay sparse — by d = 5 almost every probe misses, and
the planner's 1,273 range searches per cell lose to tree search.

This module replaces enumeration with search, following the grid-tree
idea of GriT-DBSCAN (Huang et al., 2023): index the non-empty cells'
*integer coordinates* in a static k-d-style tree whose nodes carry
coordinate bounding boxes, and for each query cell descend only into
subtrees that could contain a neighbor.  The pruning bound is exact
integer arithmetic, no floats anywhere:

* two cells at offset ``j`` are stencil neighbors iff
  ``sum_i max(0, |j_i| - 1)^2 <= d`` (the boundary-inclusive form of
  Definition 8 — see :mod:`repro.core.neighbors` on why the float
  kernel needs the ``<=``);
* for a subtree whose cells span the coordinate box ``[lo, hi]``, the
  per-dimension offset magnitude from a query cell ``c`` is at least
  ``dist_i = max(0, lo_i - c_i, c_i - hi_i)``, and because the box is
  an axis-aligned product the per-dimension minima are attained
  simultaneously, so
  ``sum_i max(0, dist_i - 1)^2 > d`` proves **no** cell in the subtree
  is a neighbor of ``c`` — the whole subtree is skipped.

Cells in surviving leaves get the exact membership test.  The result
is therefore the *same set* of neighbor pairs the stencil produces,
only found by a different route; per-cell neighbor counts and every
downstream label are bit-identical (adjacency order differs, but the
engines only ever sum integer counts over the set, so order cannot
matter).  ``tests/core/test_celltree.py`` asserts the set equality
directly and the qa fuzzer's ``vectorized_tree`` variant re-checks it
end-to-end against the brute-force oracle.

Traversal is a vectorized frontier BFS: one ``(query, node)`` pair
array per tree level, advanced with NumPy bulk operations — no
per-cell Python recursion.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CellTree", "build_tree_adjacency"]

#: Cells per leaf.  Smaller leaves prune harder but visit more nodes;
#: at 8 the exact leaf tests stay a small multiple of the true
#: neighbor count while the tree stays shallow.
DEFAULT_LEAF_SIZE = 8


def _tree_bump(counters: dict | None, key: str, delta: int) -> None:
    if counters is not None:
        counters[key] = counters.get(key, 0) + int(delta)


class CellTree:
    """Static k-d-style tree over integer epsilon-cell coordinates.

    Args:
        cells: ``(m, d)`` int64 unique cell coordinates.
        leaf_size: Maximum cells per leaf.

    The tree is array-backed (no node objects): parallel arrays hold
    each node's coordinate bounding box, child ids (``-1`` marks a
    leaf), and the half-open span of :attr:`order` listing the cell
    indices the node covers.  Splits cut the widest box dimension at
    the median, so depth is ``O(log m)`` regardless of cell layout.
    """

    def __init__(
        self, cells: np.ndarray, leaf_size: int = DEFAULT_LEAF_SIZE
    ) -> None:
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if cells.ndim != 2:
            raise ValueError(f"cells must be 2-D, got shape {cells.shape}")
        self.cells = cells
        self.leaf_size = max(1, int(leaf_size))
        m, d = cells.shape
        self.order = np.arange(m, dtype=np.int64)
        lo_list: list[np.ndarray] = []
        hi_list: list[np.ndarray] = []
        left_list: list[int] = []
        right_list: list[int] = []
        start_list: list[int] = []
        end_list: list[int] = []
        if m:
            # Explicit stack; children are allocated before being
            # built, so parent ids are stable when we recurse.
            stack = [(0, m, -1, False)]
            while stack:
                start, end, parent, is_right = stack.pop()
                node_id = len(lo_list)
                sub = cells[self.order[start:end]]
                lo = sub.min(axis=0)
                hi = sub.max(axis=0)
                lo_list.append(lo)
                hi_list.append(hi)
                left_list.append(-1)
                right_list.append(-1)
                start_list.append(start)
                end_list.append(end)
                if parent >= 0:
                    if is_right:
                        right_list[parent] = node_id
                    else:
                        left_list[parent] = node_id
                span = hi - lo
                if end - start > self.leaf_size and span.any():
                    dim = int(np.argmax(span))
                    mid = (start + end) // 2
                    # Median split along the widest dimension keeps
                    # both sides non-empty because the span is > 0.
                    part = np.argpartition(sub[:, dim], mid - start)
                    self.order[start:end] = self.order[start:end][part]
                    stack.append((mid, end, node_id, True))
                    stack.append((start, mid, node_id, False))
        self._lo = (
            np.array(lo_list, dtype=np.int64)
            if lo_list
            else np.empty((0, d), dtype=np.int64)
        )
        self._hi = (
            np.array(hi_list, dtype=np.int64)
            if hi_list
            else np.empty((0, d), dtype=np.int64)
        )
        self._left = np.array(left_list, dtype=np.int64)
        self._right = np.array(right_list, dtype=np.int64)
        self._start = np.array(start_list, dtype=np.int64)
        self._end = np.array(end_list, dtype=np.int64)

    @property
    def n_nodes(self) -> int:
        return int(self._left.shape[0])

    def query_adjacency(
        self,
        queries: np.ndarray,
        counters: dict | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighbor lists of ``queries`` against the indexed cells.

        Args:
            queries: ``(q, d)`` int64 cell coordinates.
            counters: Optional dict receiving ``tree.*`` work counters.

        Returns:
            ``(targets, starts)``: the indexed cells that are stencil
            neighbors of ``queries[i]`` (self included when the query
            is indexed) are ``targets[starts[i]:starts[i + 1]]``, as
            indices into the tree's ``cells`` array — the same
            contract as :func:`~repro.core.vectorized.build_cell_adjacency`.
        """
        queries = np.ascontiguousarray(queries, dtype=np.int64)
        n_queries = queries.shape[0]
        d = self.cells.shape[1]
        if n_queries == 0 or self.n_nodes == 0:
            return (
                np.empty(0, dtype=np.int64),
                np.zeros(n_queries + 1, dtype=np.int64),
            )
        hit_sources: list[np.ndarray] = []
        hit_targets: list[np.ndarray] = []
        n_visits = 0
        n_pruned = 0
        n_leaf_tests = 0
        # Frontier of (query index, node id) pairs, one level at a time.
        q_idx = np.arange(n_queries, dtype=np.int64)
        n_idx = np.zeros(n_queries, dtype=np.int64)
        while q_idx.size:
            n_visits += q_idx.size
            # Integer lower bound on the squared cell gap between each
            # query and any cell inside each node's coordinate box.
            qcoords = queries[q_idx]
            lo = self._lo[n_idx]
            hi = self._hi[n_idx]
            dist = np.maximum(lo - qcoords, qcoords - hi)
            np.maximum(dist, 0, out=dist)
            gap = dist - 1
            np.maximum(gap, 0, out=gap)
            bound = np.einsum("ij,ij->i", gap, gap)
            survive = bound <= d
            n_pruned += int(q_idx.size - survive.sum())
            q_idx = q_idx[survive]
            n_idx = n_idx[survive]
            if not q_idx.size:
                break
            left = self._left[n_idx]
            is_leaf = left == -1
            if is_leaf.any():
                leaf_q = q_idx[is_leaf]
                leaf_n = n_idx[is_leaf]
                starts = self._start[leaf_n]
                lens = self._end[leaf_n] - starts
                total = int(lens.sum())
                run_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
                pos = np.arange(total, dtype=np.int64) - np.repeat(
                    run_starts, lens
                )
                cand = self.order[np.repeat(starts, lens) + pos]
                src = np.repeat(leaf_q, lens)
                # Exact membership test per candidate cell.
                diff = np.abs(self.cells[cand] - queries[src])
                gap = diff - 1
                np.maximum(gap, 0, out=gap)
                exact = np.einsum("ij,ij->i", gap, gap) <= d
                n_leaf_tests += total
                hit_sources.append(src[exact])
                hit_targets.append(cand[exact])
            inner = ~is_leaf
            q_inner = q_idx[inner]
            if q_inner.size:
                q_idx = np.concatenate([q_inner, q_inner])
                n_idx = np.concatenate(
                    [left[inner], self._right[n_idx[inner]]]
                )
            else:
                break
        _tree_bump(counters, "tree.node_visits", n_visits)
        _tree_bump(counters, "tree.subtrees_pruned", n_pruned)
        _tree_bump(counters, "tree.leaf_cell_tests", n_leaf_tests)
        _tree_bump(
            counters, "planner.cell_pairs_examined", n_visits + n_leaf_tests
        )
        if hit_sources:
            sources = np.concatenate(hit_sources)
            targets = np.concatenate(hit_targets)
        else:
            sources = np.empty(0, dtype=np.int64)
            targets = np.empty(0, dtype=np.int64)
        order = np.argsort(sources, kind="stable")
        counts = np.bincount(sources, minlength=n_queries)
        return (
            targets[order],
            np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
        )


def build_tree_adjacency(
    cells: np.ndarray,
    counters: dict | None = None,
    leaf_size: int = DEFAULT_LEAF_SIZE,
) -> tuple[np.ndarray, np.ndarray]:
    """Tree-pruned drop-in for ``build_cell_adjacency``.

    Indexes ``cells`` in a :class:`CellTree` and queries every cell
    against it.  Returns the identical CSR *set* of neighbor pairs as
    the stencil builder (order within each row differs; the engines
    never depend on it), without ever enumerating the ``k_d`` offset
    stencil.
    """
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    tree = CellTree(cells, leaf_size=leaf_size)
    _tree_bump(counters, "tree.nodes", tree.n_nodes)
    return tree.query_adjacency(cells, counters=counters)
