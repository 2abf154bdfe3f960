"""The incremental detector's dirty-region pipeline against exact oracles.

``IncrementalDBSCOUT.detect`` re-runs the batch engine's core round over
``R1 = N(D)`` and its outlier round over ``R2 = N(C ∪ D)``.  Each test
here builds a case for one part of that argument and checks the labels
against ``brute_force_detect`` or a batch fit.
"""

import numpy as np
import pytest

from repro.core.cellindex import CellIndex
from repro.core.grid import Grid
from repro.core.incremental import IncrementalDBSCOUT
from repro.core.neighbors import NeighborStencil
from repro.core.reference import brute_force_detect
from repro.exceptions import ParameterError

#: Cell side for eps = 1 in 2-D; along one axis a cell's neighbors
#: reach two cells either way.
SIDE = 1.0 / np.sqrt(2.0)


def assert_exact(detector: IncrementalDBSCOUT, points: np.ndarray):
    """Labels over the active points equal the brute-force oracle."""
    result = detector.detect()
    active = detector.active_mask
    expected = brute_force_detect(points[active], detector.eps, detector.min_pts)
    assert np.array_equal(result.core_mask[active], expected.core_mask)
    assert np.array_equal(result.outlier_mask[active], expected.outlier_mask)
    assert not result.core_mask[~active].any()
    assert not result.outlier_mask[~active].any()
    return result


class TestRegion:
    def test_new_outlier_outside_the_first_ring(self):
        # q (cell 0) is covered by the core point c (cell 1), which s
        # (cell 3) supports.  Removing s demotes c, so q turns outlier
        # in cell 0, outside R1 = N(cell 3) = cells 1..5: only the
        # second probe, around the changed cell 1, reaches it.
        points = np.array([[0.5, 0.1], [1.4, 0.1], [2.2, 0.1]])
        assert np.floor(points[:, 0] / SIDE).tolist() == [0, 1, 3]
        detector = IncrementalDBSCOUT(1.0, 3)
        detector.insert(points)
        assert not assert_exact(detector, points).outlier_mask.any()
        detector.remove([2])
        result = assert_exact(detector, points)
        assert result.outlier_mask.tolist() == [True, True, False]
        assert result.stats["core_cells_recomputed"] == 1
        assert result.stats["outlier_cells_recomputed"] == 2

    def test_dirty_cell_that_became_empty(self):
        dense = 0.3 + np.linspace(0.0, 0.05, 5)[:, None] * np.ones((1, 2))
        points = np.vstack([dense, [[1.1, 0.3]]])
        detector = IncrementalDBSCOUT(1.0, 5)
        detector.insert(points)
        assert not assert_exact(detector, points).outlier_mask.any()
        detector.remove(np.arange(5))  # the dense cell empties
        result = assert_exact(detector, points)
        assert result.outlier_mask.tolist() == [False] * 5 + [True]
        assert result.stats["n_cells"] == 1

    def test_first_detect_has_every_cell_dirty(self, clustered_2d):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        stats = assert_exact(detector, clustered_2d).stats
        assert stats["dirty_cells"] == stats["n_cells"]
        assert stats["core_cells_recomputed"] == stats["n_cells"]
        assert stats["outlier_cells_recomputed"] == stats["n_cells"]

    def test_cell_spans_over_62_bits_use_the_dictionary_index(self):
        rng = np.random.default_rng(7)
        centers = [[0.0, 0.0], [2.0e9, 2.0e9], [-2.0e9, 2.0e9]]
        points = np.vstack(
            [center + rng.normal(0.0, 0.6, size=(40, 2)) for center in centers]
        )[rng.permutation(120)]
        cells = Grid(points, 1.0).cells
        assert not CellIndex(cells, NeighborStencil(2).offsets).packed
        detector = IncrementalDBSCOUT(1.0, 4)
        detector.insert(points[:80])
        assert_exact(detector, points[:80])
        detector.insert(points[80:])
        detector.remove(np.arange(0, 120, 3))
        assert_exact(detector, points)

    def test_probe_rows_are_bounded_by_the_dirty_two_ring(
        self, rng, monkeypatch
    ):
        spread = rng.uniform(-100.0, 100.0, size=(2000, 2))
        detector = IncrementalDBSCOUT(1.0, 5)
        detector.insert(spread)
        detector.detect()
        rows: list[int] = []
        probe = CellIndex.probe

        def counting_probe(index, query, budget):
            rows.append(query.shape[0])
            return probe(index, query, budget)

        monkeypatch.setattr(CellIndex, "probe", counting_probe)
        detector.insert(rng.normal(0.0, 0.5, size=(10, 2)))
        stats = detector.detect().stats
        # Probes: D, R1's non-dense cells, C ∪ D, R2's non-core cells.
        dirty = stats["dirty_cells"]
        ring_one = stats["core_cells_recomputed"]
        two_ring = stats["outlier_cells_recomputed"]
        assert len(rows) == 4
        assert sum(rows) <= 2 * dirty + 2 * ring_one + two_ring
        assert sum(rows) < 100 < 1000 < stats["n_cells"]


class TestRemoveValidation:
    def test_repeated_index_is_rejected_before_any_change(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        detector = IncrementalDBSCOUT(1.0, 2)
        detector.insert(points)
        with pytest.raises(ParameterError):
            detector.remove([0, 0])
        assert detector.active_mask.all()
        assert detector.n_active == 3
        result = detector.detect()
        assert result.outlier_mask.tolist() == [False, False, True]
        assert result.core_mask.tolist() == [True, True, False]
        assert result.stats["dirty_cells"] == 2

    def test_partly_removed_batch_is_rejected_before_any_change(
        self, clustered_2d
    ):
        detector = IncrementalDBSCOUT(0.8, 8)
        detector.insert(clustered_2d)
        detector.remove([3])
        detector.detect()
        with pytest.raises(ParameterError):
            detector.remove([1, 3])
        assert detector.active_mask.sum() == clustered_2d.shape[0] - 1
        assert detector.detect().stats["dirty_cells"] == 0
        assert_exact(detector, clustered_2d)
