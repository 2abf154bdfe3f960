"""Ablation A7 — the compiled distance-kernel tier.

Times the exact same pipeline with the NumPy kernel and the compiled C
kernel (``repro.core.kernels``) on the clustered Table-II-style
workload, asserts bit-identical labels and identical
``distance_computations`` counters, and reports the speedup.  When no
C compiler is available the C row degrades to the NumPy fallback and
the table says so — the kernel tier is a performance hint, never a
correctness dependency.

Exposes ``BENCH_STATS`` for ``run_all.py --json``; the stats record
which kernel actually ran each row so captures are compared per
kernel by ``check_regression.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.kernels.c_kernel import c_kernel_status
from repro.core.vectorized import VectorizedEngine
from repro.datasets import make_geolife_like
from repro.experiments import format_table

#: Same generator as the pruning ablation (skewed GPS-like hotspots)
#: but at the paper's Section IV-B density: minPts = 100, eps doubled.
#: The other benches scale minPts down to 10 to keep brute-force
#: comparisons tractable; the kernel ablation keeps the paper value so
#: the pair-count hot path carries paper-scale work (~59M pairs)
#: instead of being dominated by grid and planner overhead.
N_POINTS = 200_000
EPS = 200.0
MIN_PTS = 100

#: Machine-readable results for run_all.py --json, filled by main().
BENCH_STATS: dict[str, object] = {}


def dataset() -> np.ndarray:
    return make_geolife_like(N_POINTS, seed=0)


def _timed_detect(kernel: str, points: np.ndarray):
    engine = VectorizedEngine(kernel=kernel)
    # Each kernel has its own box-test threshold (Ablation A6); pin
    # every round's box tests on so both rows run the same plan and
    # only the kernel differs.
    engine._box_tests = True
    start = time.perf_counter()
    result = engine.detect(points, EPS, MIN_PTS)
    return result, time.perf_counter() - start


def _kernel_microbench():
    """Hot-path-only timing: the segmented pair-count contract alone.

    The end-to-end walls above include grid construction and label
    assembly, which the kernel tier does not touch; this isolates the
    per-pair distance work the C kernel replaces.
    """
    from repro.core.kernels import resolve_kernel

    rng = np.random.default_rng(0)
    n_cells = 2000
    m_sizes = rng.integers(5, 30, size=n_cells)
    c_sizes = rng.integers(20, 120, size=n_cells)
    n_points = N_POINTS
    array = rng.uniform(0.0, 100.0, size=(n_points, 2))
    members = rng.integers(0, n_points, size=int(m_sizes.sum()))
    cands = rng.integers(0, n_points, size=int(c_sizes.sum()))
    pairs = int((m_sizes * c_sizes).sum())
    walls = {}
    baseline = None
    for name in ("numpy", "c"):
        kernel = resolve_kernel(name)
        counters = {}
        start = time.perf_counter()
        for _ in range(3):
            counts = kernel.segmented_pair_counts(
                array, members, m_sizes, cands, c_sizes, 4.0, counters
            )
        walls[name] = (time.perf_counter() - start) / 3
        if baseline is None:
            baseline = counts
        else:
            assert np.array_equal(baseline, counts)
    return pairs, walls


def test_kernel_parity_small():
    points = make_geolife_like(20_000, seed=0)
    ref, _ = _timed_detect("numpy", points)
    got, _ = _timed_detect("c", points)
    assert np.array_equal(ref.outlier_mask, got.outlier_mask)
    assert np.array_equal(ref.core_mask, got.core_mask)
    assert (
        ref.stats["distance_computations"]
        == got.stats["distance_computations"]
    )


def main() -> None:
    status = c_kernel_status()
    points = dataset()

    rows = []
    results = {}
    for requested in ("numpy", "c"):
        result, elapsed = _timed_detect(requested, points)
        ran = result.record.context["kernel"]
        results[requested] = (result, elapsed, ran)
        rows.append(
            [
                requested,
                ran + ("" if ran == requested else " (fallback)"),
                round(elapsed, 3),
                result.stats["distance_computations"],
                result.n_outliers,
            ]
        )

    ref, ref_wall, _ = results["numpy"]
    got, got_wall, got_ran = results["c"]
    assert np.array_equal(ref.outlier_mask, got.outlier_mask)
    assert np.array_equal(ref.core_mask, got.core_mask)
    assert (
        ref.stats["distance_computations"]
        == got.stats["distance_computations"]
    )
    speedup = ref_wall / max(got_wall, 1e-9)

    print(
        format_table(
            ["requested", "ran", "wall (s)", "distances", "outliers"],
            rows,
            title=(
                "Ablation A7: distance-kernel tier "
                f"(geolife-like, n={N_POINTS}, eps={EPS}, "
                f"min_pts={MIN_PTS})"
            ),
        )
    )
    pairs, kernel_walls = _kernel_microbench()
    kernel_speedup = kernel_walls["numpy"] / max(kernel_walls["c"], 1e-9)
    print(
        format_table(
            ["kernel", "wall (s)", "Mpairs/s"],
            [
                [
                    name,
                    round(wall, 4),
                    round(pairs / wall / 1e6, 1),
                ]
                for name, wall in kernel_walls.items()
            ],
            title=(
                "Ablation A7b: pair-count hot path alone "
                f"({pairs} pairs per call, mean of 3)"
            ),
        )
    )
    if status["available"]:
        print(
            f"C kernel: {status['compiler']} -> {status['library']}\n"
            f"end-to-end speedup over NumPy: {speedup:.2f}x; "
            f"hot path alone: {kernel_speedup:.1f}x "
            "(labels and counters bit-identical)"
        )
    else:
        print(
            "C kernel unavailable "
            f"({status['reason']}); both rows ran NumPy"
        )

    BENCH_STATS.clear()
    BENCH_STATS.update(
        {
            "n_points": N_POINTS,
            "eps": EPS,
            "min_pts": MIN_PTS,
            "c_kernel_available": bool(status["available"]),
            "compiler": status.get("compiler"),
            "kernel_ran": {"numpy": "numpy", "c": got_ran},
            "wall_seconds": {
                "numpy": round(ref_wall, 3),
                "c": round(got_wall, 3),
            },
            "speedup_c_over_numpy": round(speedup, 2),
            "kernel_only_wall_seconds": {
                name: round(wall, 5)
                for name, wall in kernel_walls.items()
            },
            "kernel_only_speedup": round(kernel_speedup, 1),
            "distance_computations": int(
                ref.stats["distance_computations"]
            ),
        }
    )


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
