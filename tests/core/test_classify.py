"""Exact out-of-sample classification: ``classify`` vs ``fit``.

The serving contract is bit-consistency: ``classify(X_train)`` must
reproduce the training labels of ``fit(X_train)`` exactly — not
approximately — for both engines, across parameter and dimension
grids, and on both distance kernels.  Out-of-sample labels must match
the paper's Definition 3 (outlier iff strictly farther than eps from
every core point) checked by brute force, and the work counters must
match a cell-by-cell loop over the stencil.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro import DBSCOUT, CoreModel, classify
from repro.core import vectorized
from repro.core.cellindex import CellIndex
from repro.core.neighbors import NeighborStencil
from repro.exceptions import DataValidationError, NotFittedError

#: Every classify result must be bit-identical on both kernels (``"c"``
#: falls back to NumPy where no compiler exists).
KERNELS = ("numpy", "c")


def _dataset(rng: np.random.Generator, n_dims: int) -> np.ndarray:
    return np.vstack(
        [
            rng.normal(0.0, 0.4, size=(180, n_dims)),
            rng.normal(5.0, 0.6, size=(120, n_dims)),
            rng.uniform(-10.0, 14.0, size=(40, n_dims)),
        ]
    )


def _brute_force_labels(
    queries: np.ndarray, core_points: np.ndarray, eps: float
) -> np.ndarray:
    """Definition 3 by brute force: outlier iff > eps from every core."""
    labels = np.ones(queries.shape[0], dtype=np.int64)
    if core_points.size == 0:
        return labels
    for i, q in enumerate(queries):
        sq = ((core_points - q) ** 2).sum(axis=1)
        if (sq <= eps * eps).any():
            labels[i] = 0
    return labels


def _reference_counters(
    model: CoreModel, queries: np.ndarray
) -> dict[str, int]:
    """The classify work counters by a loop over query cells.

    A query cell holding a core cell is settled; otherwise every member
    is compared with every core point of the core cells in its stencil.
    """
    core_cells = map(tuple, model.core_cells.tolist())
    lookup = {cell: i for i, cell in enumerate(core_cells)}
    sizes = np.diff(model.core_starts)
    query_cells = np.floor(queries / model.side).astype(np.int64)
    members = defaultdict(int)
    for cell in map(tuple, query_cells.tolist()):
        members[cell] += 1
    counters = {
        "distance_computations": 0,
        "cells_settled_core": 0,
        "cells_no_candidates": 0,
    }
    offsets = NeighborStencil(model.n_dims).offset_tuples()
    for cell, n_members in members.items():
        if cell in lookup:
            counters["cells_settled_core"] += 1
            continue
        candidates = sum(
            int(sizes[lookup[neighbor]])
            for neighbor in (
                tuple(c + o for c, o in zip(cell, offset))
                for offset in offsets
            )
            if neighbor in lookup
        )
        counters["cells_no_candidates"] += candidates == 0
        counters["distance_computations"] += n_members * candidates
    return counters


@pytest.mark.parametrize("engine", ["vectorized", "distributed"])
@pytest.mark.parametrize("n_dims", [1, 2, 3])
@pytest.mark.parametrize(
    "eps,min_pts", [(0.3, 3), (0.8, 10), (2.0, 25)]
)
def test_classify_reproduces_fit_labels_exactly(
    rng, engine, n_dims, eps, min_pts
):
    points = _dataset(rng, n_dims)
    detector = DBSCOUT(eps=eps, min_pts=min_pts, engine=engine)
    result = detector.fit(points)
    labels = detector.classify(points)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, result.labels())
    for kernel in KERNELS:
        np.testing.assert_array_equal(
            detector.core_model_.classify(points, kernel=kernel),
            result.labels(),
        )


@pytest.mark.parametrize("engine", ["vectorized", "distributed"])
def test_classify_out_of_sample_matches_definition_3(rng, engine):
    points = _dataset(rng, 2)
    queries = np.vstack(
        [
            rng.normal(0.0, 0.5, size=(60, 2)),  # around cluster 1
            rng.uniform(-12.0, 16.0, size=(60, 2)),  # scatter
            points[:10],  # exact training points
        ]
    )
    detector = DBSCOUT(eps=0.8, min_pts=10, engine=engine)
    result = detector.fit(points)
    model = detector.core_model_
    expected = _brute_force_labels(
        queries, points[result.core_mask], eps=0.8
    )
    np.testing.assert_array_equal(model.classify(queries), expected)
    np.testing.assert_array_equal(classify(model, queries), expected)
    np.testing.assert_array_equal(
        model.classify_mask(queries), expected.astype(bool)
    )


def test_core_model_from_fit_round_trip_fields(rng):
    points = _dataset(rng, 2)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    result = detector.fit(points)
    model = detector.core_model_
    assert isinstance(model, CoreModel)
    assert model.eps == 0.8 and model.min_pts == 10
    assert model.n_dims == 2
    assert model.n_train == points.shape[0]
    assert model.n_core_points == result.n_core_points
    assert model.core_starts[0] == 0
    assert model.core_starts[-1] == model.n_core_points
    assert model.nbytes() > 0
    # the same object is cached across accesses
    assert detector.core_model_ is model


def test_classify_requires_fit_first():
    detector = DBSCOUT(eps=0.5, min_pts=5)
    with pytest.raises(NotFittedError):
        detector.classify(np.zeros((3, 2)))
    with pytest.raises(NotFittedError):
        detector.core_model_


def test_classify_rejects_dimension_mismatch(rng):
    points = _dataset(rng, 2)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    detector.fit(points)
    with pytest.raises(DataValidationError):
        detector.classify(np.zeros((4, 3)))


def test_classify_with_no_core_points_labels_everything_outlier(rng):
    points = rng.uniform(-100.0, 100.0, size=(40, 2))
    detector = DBSCOUT(eps=0.01, min_pts=10)
    result = detector.fit(points)
    assert result.n_core_points == 0
    labels = detector.classify(points)
    np.testing.assert_array_equal(labels, np.ones(40, dtype=np.int64))


@pytest.mark.parametrize("kernel", KERNELS)
def test_classify_counters_report_work(rng, kernel):
    # In and out of sample, across dimensions: labels follow
    # Definition 3 and the counters (accumulated over the calls) match
    # a cell-by-cell loop over the stencil.
    counters: dict[str, int] = {}
    expected = dict.fromkeys(
        ("distance_computations", "cells_settled_core",
         "cells_no_candidates"),
        0,
    )
    for n_dims in (1, 2, 3, 4):
        points = _dataset(rng, n_dims)
        queries = np.vstack(
            [
                points,
                points[::3] + rng.normal(0.0, 0.3, size=points[::3].shape),
                rng.uniform(-12.0, 16.0, size=(60, n_dims)),
            ]
        )
        detector = DBSCOUT(eps=0.9, min_pts=8)
        result = detector.fit(points)
        model = detector.core_model_
        labels = model.classify(queries, counters=counters, kernel=kernel)
        np.testing.assert_array_equal(
            labels,
            _brute_force_labels(queries, points[result.core_mask], 0.9),
        )
        for key, value in _reference_counters(model, queries).items():
            expected[key] += value
    assert {key: counters[key] for key in expected} == expected
    assert all(value > 0 for value in expected.values())


def _far_batch(rng, points, far_point):
    """Seven near-data queries plus one far point (the eighth)."""
    near = points[rng.choice(points.shape[0], 7, replace=False)]
    near = near + rng.normal(0.0, 0.3, size=near.shape)
    return near, np.vstack([near, far_point])


@pytest.mark.parametrize("kernel", KERNELS)
def test_far_query_point_is_filtered_not_packed(rng, monkeypatch, kernel):
    # A point ~1e12 away once widened the query/core key space past 62
    # bits and sent the whole batch through a per-call dictionary over
    # every core cell.  Outside the core cells' stencil-widened box it
    # can have no candidate, so it is dropped before packing.
    points = _dataset(rng, 3)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    result = detector.fit(points)
    model = detector.core_model_
    near, batch = _far_batch(rng, points, [[3e12, -3e12, 1e9]])
    assert model._index.packed

    pack = CellIndex._pack

    def packed_only(index, *args):
        assert index.packed, "classify probed with wide (unpacked) keys"
        return pack(index, *args)

    monkeypatch.setattr(CellIndex, "_pack", packed_only)
    near_counters: dict[str, int] = {}
    batch_counters: dict[str, int] = {}
    near_labels = model.classify(near, counters=near_counters, kernel=kernel)
    labels = model.classify(batch, counters=batch_counters, kernel=kernel)
    np.testing.assert_array_equal(labels[:7], near_labels)
    assert labels[7] == 1
    np.testing.assert_array_equal(
        labels, _brute_force_labels(batch, points[result.core_mask], 0.8)
    )
    assert batch_counters == {
        **near_counters,
        "cells_no_candidates": near_counters["cells_no_candidates"] + 1,
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_far_query_cell_aliasing_a_core_key_stays_outlier(rng, kernel):
    # Shift a core cell by +1 in its second-to-last coordinate and by
    # one whole field width down in its last: packed without the box
    # filter, the borrow cancels the carry and the far cell's key
    # equals the core cell's, which would settle it as an inlier.
    points = _dataset(rng, 3)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    result = detector.fit(points)
    model = detector.core_model_
    index = model._index
    core_cell = model.core_cells[0]
    alias = core_cell.copy()
    alias[-2] += 1
    alias[-1] -= int(index._weights[-2])
    assert index._pack(alias[None])[0] == index._pack(core_cell[None])[0]
    assert index.find(alias[None])[0] == -1
    query = (alias + 0.5) * model.side
    _, batch = _far_batch(rng, points, query[None])
    counters: dict[str, int] = {}
    labels = model.classify(batch, counters=counters, kernel=kernel)
    assert labels[7] == 1
    np.testing.assert_array_equal(
        labels, _brute_force_labels(batch, points[result.core_mask], 0.8)
    )
    expected = _reference_counters(model, batch)
    assert {key: counters[key] for key in expected} == expected


@pytest.mark.parametrize("kernel", KERNELS)
def test_probe_budget_does_not_change_results(rng, monkeypatch, kernel):
    # The probe searches (query cell, offset) keys in budget-sized
    # blocks; a batch of 65,536 rows at d=5 would otherwise need ~400M
    # keys at once.  Any block size gives the same pairs.
    points = _dataset(rng, 3)
    queries = np.vstack([points, rng.uniform(-12.0, 16.0, size=(80, 3))])
    detector = DBSCOUT(eps=0.8, min_pts=10)
    detector.fit(points)
    model = detector.core_model_
    default_counters: dict[str, int] = {}
    expected = model.classify(
        queries, counters=default_counters, kernel=kernel
    )
    for budget in (1, 7, 1000):
        monkeypatch.setattr(vectorized, "_ADJACENCY_PROBE_BUDGET", budget)
        counters: dict[str, int] = {}
        labels = model.classify(queries, counters=counters, kernel=kernel)
        np.testing.assert_array_equal(labels, expected)
        assert counters == default_counters


def test_classify_builds_no_index(rng, monkeypatch):
    # The cell index is built once per model (fit, artifact load,
    # snapshot export), never per query.
    points = _dataset(rng, 2)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    detector.fit(points)
    model = detector.core_model_
    built = []
    real_init = CellIndex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(CellIndex, "__init__", counting_init)
    for start in range(0, points.shape[0], 8):
        model.classify(points[start : start + 8])
    assert built == []


def test_classify_single_and_empty_query(rng):
    points = _dataset(rng, 2)
    detector = DBSCOUT(eps=0.8, min_pts=10)
    detector.fit(points)
    single = detector.classify(points[:1])
    assert single.shape == (1,)
    empty = detector.classify(np.empty((0, 2)))
    assert empty.shape == (0,) and empty.dtype == np.int64
