"""Ablation A3 — incremental maintenance vs recompute-from-scratch.

Extension beyond the paper: ``IncrementalDBSCOUT`` keeps the exact
result up to date across insertions by re-running the batch engine's
rounds over the dirty cells' two-ring only.  The scenario is the
natural one for GPS collections: a large historical base, then a
trickle of *spatially localized* update batches (new fixes keep
arriving around active areas).  Recomputing batch DBSCOUT after every
update pays the full-map cost each time; incremental maintenance pays
one grid rebuild of the window plus the touched two-ring.  (When a
batch scatters uniformly over the whole map the advantage shrinks —
the two-ring is most of the map.)
"""

from __future__ import annotations

import time

import numpy as np

from _common import MIN_PTS, OSM_EPS
from repro import DBSCOUT, IncrementalDBSCOUT
from repro.datasets import make_openstreetmap_like
from repro.experiments import format_table

BASE_POINTS = 20_000
N_UPDATES = 20
UPDATE_SIZE = 100


def workload():
    """Historical base + localized update batches around one hotspot."""
    base = make_openstreetmap_like(BASE_POINTS, seed=13)
    rng = np.random.default_rng(99)
    hotspot = base[rng.integers(0, BASE_POINTS)]
    updates = [
        hotspot + rng.normal(0.0, 0.3e6, size=(UPDATE_SIZE, 2))
        for _ in range(N_UPDATES)
    ]
    return base, updates


def run_incremental() -> tuple[float, int]:
    base, updates = workload()
    detector = IncrementalDBSCOUT(eps=OSM_EPS, min_pts=MIN_PTS)
    detector.insert(base)
    detector.detect()  # initial load is paid once by both strategies
    start = time.perf_counter()
    result = None
    for batch in updates:
        detector.insert(batch)
        result = detector.detect()
    return time.perf_counter() - start, result.n_outliers


def run_recompute() -> tuple[float, int]:
    base, updates = workload()
    arrived = [base]
    DBSCOUT(eps=OSM_EPS, min_pts=MIN_PTS).fit(base)
    start = time.perf_counter()
    result = None
    for batch in updates:
        arrived.append(batch)
        result = DBSCOUT(eps=OSM_EPS, min_pts=MIN_PTS).fit(np.vstack(arrived))
    return time.perf_counter() - start, result.n_outliers


def test_incremental_stream(benchmark):
    _, n_outliers = benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    assert n_outliers > 0


def test_recompute_stream(benchmark):
    _, n_outliers = benchmark.pedantic(run_recompute, rounds=1, iterations=1)
    assert n_outliers > 0


def test_streams_agree():
    _, incremental_outliers = run_incremental()
    _, recompute_outliers = run_recompute()
    assert incremental_outliers == recompute_outliers


def test_incremental_wins_on_localized_updates():
    t_incremental, _ = run_incremental()
    t_recompute, _ = run_recompute()
    assert t_incremental < t_recompute


def main() -> None:
    t_incremental, n_inc = run_incremental()
    t_recompute, n_re = run_recompute()
    assert n_inc == n_re
    print(
        format_table(
            ["strategy", "update-phase seconds", "final outliers"],
            [
                ["incremental maintenance", round(t_incremental, 3), n_inc],
                ["recompute per update", round(t_recompute, 3), n_re],
            ],
            title=(
                f"Ablation A3: {BASE_POINTS}-point base + {N_UPDATES} "
                f"localized batches of {UPDATE_SIZE} (exact after each)"
            ),
        )
    )


if __name__ == "__main__":
    main()
