"""Tests for the exact grid-based DBSCAN baseline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import detect_outliers
from repro.baselines.dbscan import DBSCAN
from repro.baselines.grid_dbscan import GridDBSCAN


class TestNoiseEqualsDbscoutOutliers:
    """The paper's starting observation, asserted exactly."""

    def test_clustered_2d(self, clustered_2d):
        grid_result = GridDBSCAN(0.8, 8).fit(clustered_2d)
        scout = detect_outliers(clustered_2d, 0.8, 8)
        assert np.array_equal(grid_result.noise_mask, scout.outlier_mask)
        assert np.array_equal(grid_result.core_mask, scout.core_mask)

    def test_clustered_3d(self, clustered_3d):
        grid_result = GridDBSCAN(1.0, 10).fit(clustered_3d)
        scout = detect_outliers(clustered_3d, 1.0, 10)
        assert np.array_equal(grid_result.noise_mask, scout.outlier_mask)


class TestClusteringCorrectness:
    def test_matches_kdtree_dbscan_structure(self, clustered_2d):
        grid_result = GridDBSCAN(0.8, 8).fit(clustered_2d)
        reference = DBSCAN(0.8, 8).fit(clustered_2d)
        assert grid_result.n_clusters == reference.n_clusters
        assert np.array_equal(grid_result.core_mask, reference.core_mask)
        assert np.array_equal(grid_result.noise_mask, reference.noise_mask)
        # Core points must induce the identical cluster partition
        # (labels may be permuted).
        core = grid_result.core_mask
        mapping: dict[int, int] = {}
        for ours, theirs in zip(
            grid_result.labels[core], reference.labels[core]
        ):
            assert mapping.setdefault(int(ours), int(theirs)) == int(theirs)

    def test_two_separated_clusters(self, rng):
        a = rng.normal(0.0, 0.3, size=(80, 2))
        b = rng.normal(10.0, 0.3, size=(80, 2))
        result = GridDBSCAN(1.0, 5).fit(np.vstack([a, b]))
        assert result.n_clusters == 2

    def test_border_joins_adjacent_cluster(self):
        # A border point must get the label of a cluster with a core
        # point within eps.
        cluster = np.tile([[0.0, 0.0]], (10, 1))
        border = np.array([[0.9, 0.0]])
        points = np.vstack([cluster, border])
        result = GridDBSCAN(1.0, 5).fit(points)
        assert result.labels[-1] == result.labels[0]

    def test_chain_merges_through_cells(self, rng):
        chain = np.column_stack(
            [np.linspace(0, 10, 200), np.zeros(200)]
        ) + rng.normal(0, 0.02, (200, 2))
        result = GridDBSCAN(0.5, 4).fit(chain)
        assert result.n_clusters == 1

    def test_empty(self):
        result = GridDBSCAN(1.0, 3).fit(np.zeros((0, 2)))
        assert result.n_clusters == 0

    def test_detect_facade(self, clustered_2d):
        detection = GridDBSCAN(0.8, 8).detect(clustered_2d)
        assert detection.stats["algorithm"] == "grid_dbscan"
        assert set(detection.timings.phases) == {
            "core_points",
            "cluster_graph",
            "labelling",
        }


coords = st.integers(min_value=-160, max_value=160).map(lambda k: k / 8.0)


@settings(max_examples=50, deadline=None)
@given(
    points=st.integers(min_value=1, max_value=50).flatmap(
        lambda n: arrays(np.float64, (n, 2), elements=coords)
    ),
    eps_k=st.integers(min_value=1, max_value=100),
    min_pts=st.integers(min_value=1, max_value=6),
)
def test_grid_dbscan_equivalence_property(points, eps_k, min_pts):
    eps = eps_k / 8.0
    grid_result = GridDBSCAN(eps, min_pts).fit(points)
    reference = DBSCAN(eps, min_pts, algorithm="brute").fit(points)
    assert np.array_equal(grid_result.core_mask, reference.core_mask)
    assert np.array_equal(grid_result.noise_mask, reference.noise_mask)
    assert grid_result.n_clusters == reference.n_clusters
    # Non-noise points are labelled; labels form a consistent partition
    # of the cores.
    assert ((grid_result.labels >= 0) == ~grid_result.noise_mask).all()
