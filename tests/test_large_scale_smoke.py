"""Large-scale smoke test: the headline claim at laptop scale.

The paper's pitch is linear-time outlier detection on very large
datasets.  This (slow-marked) test runs the vectorized engine on a
million-point OpenStreetMap-like workload and checks completion within
a generous wall-clock budget, sane outputs, and the per-point work
bound that underlies the linearity claim.
"""

import time

import numpy as np
import pytest

from repro import DBSCOUT
from repro.datasets import make_openstreetmap_like


@pytest.mark.slow
def test_million_points_under_a_minute():
    points = make_openstreetmap_like(1_000_000, seed=0)
    detector = DBSCOUT(eps=1.0e6, min_pts=10)
    start = time.perf_counter()
    result = detector.fit(points)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"1M points took {elapsed:.1f}s"
    assert result.n_points == 1_000_000
    # Sane structure: most of the world is dense cities, a small
    # outlier tail exists.
    assert 0 < result.n_outliers < 100_000
    assert result.n_core_points > 800_000
    # The linearity mechanism: bounded distance computations per point.
    assert result.stats["distance_computations"] / 1_000_000 < 200


@pytest.mark.slow
def test_serial_distributed_parity_at_scale():
    # At 200k points the single-process vectorized engine and the
    # distributed engine must still agree bit-for-bit.
    points = make_openstreetmap_like(200_000, seed=3)
    serial = DBSCOUT(eps=1.0e6, min_pts=10).fit(points)
    distributed = DBSCOUT(
        eps=1.0e6, min_pts=10, engine="distributed", num_partitions=4
    ).fit(points)
    assert np.array_equal(serial.outlier_mask, distributed.outlier_mask)
    assert np.array_equal(serial.core_mask, distributed.core_mask)


@pytest.mark.slow
def test_incremental_scales_to_large_base():
    from repro import IncrementalDBSCOUT

    base = make_openstreetmap_like(300_000, seed=1)
    detector = IncrementalDBSCOUT(eps=1.0e6, min_pts=10)
    detector.insert(base)
    detector.detect()
    rng = np.random.default_rng(2)
    hotspot = base[0]
    batch = hotspot + rng.normal(0.0, 0.3e6, size=(200, 2))
    start = time.perf_counter()
    detector.insert(batch)
    result = detector.detect()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"localized update took {elapsed:.1f}s"
    assert result.n_points == 300_200
