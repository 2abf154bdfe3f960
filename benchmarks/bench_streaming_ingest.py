"""Streaming benchmark — live ingest, churn, snapshot/swap latency.

Exercises :mod:`repro.stream` on a Table-II-scale workload (200k-point
base + churn batches):

1. **Localized growth beats refit.**  New fixes arriving around an
   active area (the common case for tracking feeds) dirty only a few
   cells, so live ingest + exact labels must be much faster than
   refitting batch DBSCOUT over everything — the labels are asserted
   identical against sampled refits.
2. **Steady-state churn throughput.**  Once the count window is full,
   every batch also evicts the *oldest* fixes — which are scattered
   across the whole map, so the dirty two-ring is large.  The bench
   reports points/second and the ratio against refit.  Each step re-runs
   the batch engine's rounds over that two-ring only, so churn beats a
   refit too (~1.9x at 220k points on a 2-CPU host), by far less than
   localized growth does.
3. **Snapshot + hot-swap latency.**  p50/p90/max of
   ``LiveDetector.snapshot()`` (exact CoreModel export) and
   ``OutlierService.swap`` (atomic install) — the pause-free path
   that keeps a served model fresh.

Results land in ``BENCH_STATS`` for ``run_all.py --json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro import DBSCOUT
from repro.datasets import make_geolife_like
from repro.experiments import format_table
from repro.serve import OutlierService
from repro.stream import CountWindow, LiveDetector

N_BASE = 200_000
EPS = 100.0
MIN_PTS = 10

N_GROWTH_BATCHES = 10
N_CHURN_BATCHES = 10
BATCH_ROWS = 2_000
REFIT_SAMPLES = 3
N_SNAPSHOTS = 8

#: Machine-readable results for run_all.py --json, filled by main().
BENCH_STATS: dict[str, object] = {}


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def _localized_batch(
    base: np.ndarray, rng: np.random.Generator, rows: int = BATCH_ROWS
) -> np.ndarray:
    """An update batch around one of the base map's hotspots."""
    anchor = base[rng.integers(0, base.shape[0])]
    return anchor + rng.normal(0.0, 5.0, size=(rows, base.shape[1]))


def _timed_phase(
    live: LiveDetector,
    base: np.ndarray,
    rng: np.random.Generator,
    n_batches: int,
) -> tuple[list[float], list[float], int]:
    """Ingest ``n_batches`` localized batches; sample refit checks."""
    ingest_walls: list[float] = []
    refit_walls: list[float] = []
    evicted = 0
    sample_every = max(1, n_batches // REFIT_SAMPLES)
    for step in range(n_batches):
        batch = _localized_batch(base, rng)
        start = time.perf_counter()
        outcome = live.ingest(batch)
        result_live = live.result()
        ingest_walls.append(time.perf_counter() - start)
        evicted += outcome.evicted
        if step % sample_every == 0:
            window = live.active_points()
            start = time.perf_counter()
            result_batch = DBSCOUT(eps=EPS, min_pts=MIN_PTS).fit(window)
            refit_walls.append(time.perf_counter() - start)
            assert np.array_equal(
                result_live.outlier_mask, result_batch.outlier_mask
            ), "live labels diverged from batch refit"
    return ingest_walls, refit_walls, evicted


def main() -> None:
    rng = np.random.default_rng(42)
    base = make_geolife_like(N_BASE, seed=0)

    # The window admits the growth phase, then churns: every batch
    # past the cap evicts the oldest (scattered) base fixes.
    cap = N_BASE + N_GROWTH_BATCHES * BATCH_ROWS
    live = LiveDetector(
        EPS, MIN_PTS, window=CountWindow(cap), name="geo"
    )
    load_start = time.perf_counter()
    live.ingest(base)
    live.result()
    load_wall = time.perf_counter() - load_start

    # -- 1: localized growth vs refit ----------------------------------
    grow_walls, grow_refits, _ = _timed_phase(
        live, base, rng, N_GROWTH_BATCHES
    )
    grow_mean = sum(grow_walls) / len(grow_walls)
    grow_refit_mean = sum(grow_refits) / len(grow_refits)
    grow_speedup = grow_refit_mean / max(grow_mean, 1e-9)

    # -- 2: steady-state churn -----------------------------------------
    churn_walls, churn_refits, evicted = _timed_phase(
        live, base, rng, N_CHURN_BATCHES
    )
    churn_mean = sum(churn_walls) / len(churn_walls)
    churn_refit_mean = sum(churn_refits) / len(churn_refits)
    churn_ratio = churn_refit_mean / max(churn_mean, 1e-9)
    churn_points = N_CHURN_BATCHES * BATCH_ROWS
    throughput = churn_points / max(sum(churn_walls), 1e-9)

    print(
        format_table(
            ["phase", "per batch (s)", "refit (s)", "ratio"],
            [
                [
                    "growth (insert only)",
                    round(grow_mean, 4),
                    round(grow_refit_mean, 4),
                    f"{grow_speedup:.1f}x",
                ],
                [
                    "churn (insert + evict oldest)",
                    round(churn_mean, 4),
                    round(churn_refit_mean, 4),
                    f"{churn_ratio:.1f}x",
                ],
            ],
            title=(
                f"Streaming S1: {BATCH_ROWS}-pt batches over a "
                f"{cap}-pt window (geolife-like, eps={EPS}, "
                f"min_pts={MIN_PTS}; labels asserted == refit)"
            ),
        )
    )
    print(
        f"churn throughput: {throughput:,.0f} points/s "
        f"({evicted} evicted across {N_CHURN_BATCHES} batches); "
        f"localized-growth speedup over refit: {grow_speedup:.1f}x\n"
    )
    assert grow_speedup >= 2.0, (
        f"expected >= 2x on localized growth, measured "
        f"{grow_speedup:.1f}x"
    )

    # -- 3: snapshot + hot-swap latency --------------------------------
    snapshot_walls: list[float] = []
    swap_walls: list[float] = []
    with OutlierService() as service:
        for _ in range(N_SNAPSHOTS):
            live.ingest(_localized_batch(base, rng, rows=200))
            start = time.perf_counter()
            snapshot = live.snapshot()
            snapshot_walls.append(time.perf_counter() - start)
            start = time.perf_counter()
            service.swap("geo", snapshot.model)
            swap_walls.append(time.perf_counter() - start)
        versions = service.swap_status("geo")["versions"]
        assert versions == {"geo": N_SNAPSHOTS}

    snap_ms = {
        "p50": _quantile(snapshot_walls, 0.50) * 1e3,
        "p90": _quantile(snapshot_walls, 0.90) * 1e3,
        "max": max(snapshot_walls) * 1e3,
    }
    swap_ms = {
        "p50": _quantile(swap_walls, 0.50) * 1e3,
        "p90": _quantile(swap_walls, 0.90) * 1e3,
        "max": max(swap_walls) * 1e3,
    }
    print(
        format_table(
            ["stage", "p50 (ms)", "p90 (ms)", "max (ms)"],
            [
                ["snapshot (exact CoreModel)"]
                + [round(snap_ms[k], 2) for k in ("p50", "p90", "max")],
                ["service.swap (atomic install)"]
                + [round(swap_ms[k], 2) for k in ("p50", "p90", "max")],
            ],
            title=(
                f"Streaming S2: snapshot + hot-swap latency "
                f"({N_SNAPSHOTS} swaps, {live.window_points}-pt window)"
            ),
        )
    )

    BENCH_STATS.clear()
    BENCH_STATS.update(
        {
            "n_base": N_BASE,
            "eps": EPS,
            "min_pts": MIN_PTS,
            "batch_rows": BATCH_ROWS,
            "initial_load_s": round(load_wall, 3),
            "growth_mean_ingest_s": round(grow_mean, 4),
            "growth_mean_refit_s": round(grow_refit_mean, 4),
            "growth_speedup": round(grow_speedup, 1),
            "churn_mean_ingest_s": round(churn_mean, 4),
            "churn_mean_refit_s": round(churn_refit_mean, 4),
            "churn_points_per_s": int(throughput),
            "points_evicted": int(evicted),
            "snapshot_latency_ms": {
                key: round(value, 2) for key, value in snap_ms.items()
            },
            "swap_latency_ms": {
                key: round(value, 2) for key, value in swap_ms.items()
            },
            "stream_counters": {
                key: value
                for key, value in live.telemetry().items()
                if isinstance(value, (int, float))
            },
        }
    )


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
