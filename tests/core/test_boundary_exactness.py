"""Cross-engine boundary semantics: exact-eps, degenerate, domain limits.

The operational exactness contract (module docstring of
``repro.core.reference``) says two points are neighbors iff they share
an epsilon-cell or their float squared distance is ``<= eps**2``.
These tests pin the visible consequences of that contract across every
engine: pairs at distance exactly eps count, same-cell pairs count
even when the float kernel rounds their distance above eps, degenerate
inputs agree everywhere, and out-of-domain coordinates are rejected
uniformly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classify import CoreModel
from repro.core.distributed import DistributedEngine
from repro.core.grid import MAX_ABS_CELL_COORD, Grid, cell_side_length
from repro.core.incremental import IncrementalDBSCOUT
from repro.core.reference import brute_force_detect
from repro.core.vectorized import VectorizedEngine
from repro.exceptions import DataValidationError


def _vectorized(box_tests):
    """The vectorized engine with every round's box tests pinned."""
    engine = VectorizedEngine()
    engine._box_tests = box_tests
    return engine.detect


def _engines():
    return [
        ("vectorized_pruned", _vectorized(True)),
        ("vectorized_unpruned", _vectorized(False)),
        (
            "distributed_group",
            DistributedEngine(num_partitions=2, join_strategy="group").detect,
        ),
        (
            "distributed_plain",
            DistributedEngine(num_partitions=2, join_strategy="plain").detect,
        ),
        (
            "distributed_broadcast",
            DistributedEngine(
                num_partitions=2, join_strategy="broadcast"
            ).detect,
        ),
        ("incremental", _incremental_detect),
    ]


def _incremental_detect(points, eps, min_pts):
    detector = IncrementalDBSCOUT(eps, min_pts)
    if points.shape[0]:
        detector.insert(points)
    return detector.detect()


def _assert_all_engines_match_reference(points, eps, min_pts):
    points = np.asarray(points, dtype=np.float64)
    reference = brute_force_detect(points, eps, min_pts)
    for name, detect in _engines():
        result = detect(points, eps, min_pts)
        np.testing.assert_array_equal(
            result.core_mask, reference.core_mask, err_msg=name
        )
        np.testing.assert_array_equal(
            result.outlier_mask, reference.outlier_mask, err_msg=name
        )
    if points.shape[0]:
        model = CoreModel.from_fit(points, reference, eps, min_pts)
        np.testing.assert_array_equal(
            model.classify(points).astype(bool),
            reference.outlier_mask,
            err_msg="classify",
        )
    return reference


class TestExactEpsDistance:
    """Points at distance exactly eps are neighbors (``<= eps``)."""

    @pytest.mark.parametrize("n_dims", [1, 2, 3])
    @pytest.mark.parametrize("eps", [0.5, 0.7, 1.0, 3.0])
    def test_axis_aligned_exact_eps_pair_counts(self, n_dims, eps):
        a = np.zeros(n_dims)
        b = np.zeros(n_dims)
        b[0] = eps
        points = np.stack([a, b, a, b])  # two copies each
        reference = _assert_all_engines_match_reference(points, eps, 3)
        # With min_pts=3 each point needs its duplicate AND the
        # exactly-eps partner pair: everyone core, nobody an outlier.
        assert reference.core_mask.all()
        assert not reference.outlier_mask.any()

    def test_exact_eps_pair_two_cells_apart(self):
        # The shrunk fuzz witness for the stencil bug: sub-ulp jitter
        # puts the endpoints of a float-exactly-eps pair in cells at
        # minimal gap exactly eps, outside the paper-strict stencil.
        points = np.array([[-5e-17], [0.0], [1.4], [5e-17], [0.7]])
        reference = _assert_all_engines_match_reference(points, 0.7, 5)
        assert reference.core_mask.any()

    def test_same_cell_pair_beyond_float_eps_counts(self):
        # Cell-diagonal corners: real distance < eps but the float
        # kernel rounds the squared distance one ulp above eps**2.
        # Lemma 1 (same cell -> neighbors) must win.
        eps = 3.424009075559291
        side = cell_side_length(eps, 3)
        hi = np.nextafter(side, 0.0)
        points = np.array(
            [[0.0, 0.0, 0.0], [hi, hi, hi]] * 2, dtype=np.float64
        )
        sq = float(((points[0] - points[1]) ** 2).sum())
        assert sq > eps * eps  # the float paradox this test pins
        reference = _assert_all_engines_match_reference(points, eps, 4)
        assert reference.core_mask.all()


class TestDegenerateInputs:
    """n = 0, n = 1, n < min_pts, duplicates: identical everywhere."""

    def test_empty_dataset(self):
        reference = _assert_all_engines_match_reference(
            np.zeros((0, 2)), 1.0, 3
        )
        assert reference.n_points == 0
        assert reference.outlier_mask.shape == (0,)

    def test_single_point(self):
        reference = _assert_all_engines_match_reference(
            [[1.0, 2.0]], 1.0, 3
        )
        assert reference.outlier_mask.tolist() == [True]

    def test_fewer_points_than_min_pts(self):
        reference = _assert_all_engines_match_reference(
            [[0.0, 0.0], [0.1, 0.1]], 1.0, 5
        )
        assert reference.outlier_mask.all()

    def test_all_duplicates_are_core(self):
        reference = _assert_all_engines_match_reference(
            np.zeros((7, 3)), 0.5, 4
        )
        assert reference.core_mask.all()

    def test_single_point_at_min_pts_one(self):
        reference = _assert_all_engines_match_reference(
            [[3.0]], 1.0, 1
        )
        assert reference.core_mask.tolist() == [True]


class TestEmptyClassify:
    """classify() on an empty query batch returns an empty array."""

    @pytest.fixture
    def model(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
        reference = brute_force_detect(points, 1.0, 2)
        return CoreModel.from_fit(points, reference, 1.0, 2)

    @pytest.mark.parametrize(
        "empty",
        [np.zeros((0, 2)), np.array([]), []],
        ids=["0x2", "flat", "list"],
    )
    def test_core_model_classify_empty(self, model, empty):
        labels = model.classify(empty)
        assert labels.shape == (0,)
        assert labels.dtype == np.int64


class TestGridDomainGuard:
    """Out-of-domain coordinates are rejected uniformly, everywhere."""

    POINTS = np.array([[9e18, 0.0], [-9e18, 0.0], [9e18, 1e9]])

    def test_reference_rejects(self):
        with pytest.raises(DataValidationError):
            brute_force_detect(self.POINTS, 0.5, 2)

    @pytest.mark.parametrize(
        "name,detect", _engines(), ids=[name for name, _ in _engines()]
    )
    def test_every_engine_rejects(self, name, detect):
        with pytest.raises(DataValidationError):
            detect(self.POINTS, 0.5, 2)

    def test_quotient_collapse_rejected(self):
        # Two distinct floats whose cell quotients collide: beyond
        # 2**52 cells the grid cannot tell neighbors apart.
        points = np.array([[1e15], [1.0000000000000001e15]])
        with pytest.raises(DataValidationError):
            brute_force_detect(points, 0.1, 2)
        with pytest.raises(DataValidationError):
            VectorizedEngine().detect(points, 0.1, 2)

    def test_limit_scales_with_side(self):
        # The same coordinates are fine when eps makes cells large
        # enough: the guard bounds |x / side|, not |x|.
        side = cell_side_length(0.5, 1)
        in_domain = np.array([[(2.0**45) * side], [0.0]])
        Grid(in_domain, 0.5)  # does not raise
        out_of_domain = np.array([[float(MAX_ABS_CELL_COORD) * side], [0.0]])
        with pytest.raises(DataValidationError):
            Grid(out_of_domain, 0.5)
