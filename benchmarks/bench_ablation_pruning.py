"""Ablation A6 — box tests, decided per round.

Quantifies the box-test layer this repository adds on top of the
paper's exact pipeline (see ``docs/architecture.md``): bounding-box
covered/excluded classification of cell pairs plus covered-cell
settling.  Each round box-tests iff its non-self cell pairs hide at
least ``BOX_TEST_MIN_PAIR_DENSITY[kernel]`` point pairs each.  For
every round of every input the table (A6a) times three variants — box
tests forced on, forced off, and the rule — and records the round's
pair density (``p / c``), the rule's pick, and whether the pick was the
faster forced side.  Labels are asserted equal across the three;
timings are reported, never asserted.  Inputs: the 200k geolife-like
fit, a 5-D mixture shaped like the benchmark's (five sigma=0.4
clusters in [-5, 5]^5 plus 5% scatter; eps 2, min_pts 60) and the A5
dimensionality mixtures, each under both kernels.  The NumPy mixture
runs at 20k points: with box tests off its core round alone takes
~17 s at 100k.  The whole bench takes ~30 s on a 2-CPU host.

Exposes ``BENCH_STATS`` for ``run_all.py --json``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.kernels import resolve_kernel
from repro.core.vectorized import BOX_TEST_MIN_PAIR_DENSITY, VectorizedEngine
from repro.datasets import make_geolife_like
from repro.experiments import format_table

from _common import MIN_PTS
from bench_ablation_dimensionality import (
    DIMENSIONS,
    dataset as a5_dataset,
    eps_for as a5_eps_for,
)

#: The clustered Table-II-style workload: skewed GPS-like hotspots.
N_POINTS = 200_000
EPS = 100.0

KERNELS = ("c", "numpy")
ROUNDS = ("core_points", "outliers")

#: Forced box tests on, forced off, and the per-round rule.
VARIANTS = (("on", True), ("off", False), ("rule", None))

#: Fits per variant; each round's time is the minimum over them.
REPEATS = 2

#: Points of the 5-D mixture per kernel.
MIXTURE_POINTS = {"c": 100_000, "numpy": 20_000}

#: Machine-readable results for run_all.py --json, filled by main().
BENCH_STATS: dict[str, object] = {}


def dataset() -> np.ndarray:
    return make_geolife_like(N_POINTS, seed=0)


def mixture_5d(n_points: int, seed: int = 0) -> np.ndarray:
    """Five sigma=0.4 Gaussian clusters in [-5, 5]^5 plus 5% uniform
    scatter in [-10, 10]^5."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(5, 5))
    n_scatter = int(n_points * 0.05)
    members = rng.integers(0, 5, size=n_points - n_scatter)
    clustered = centers[members] + rng.normal(
        0.0, 0.4, size=(members.size, 5)
    )
    scatter = rng.uniform(-10.0, 10.0, size=(n_scatter, 5))
    return np.vstack([clustered, scatter])


def _engine(box_tests: bool | None = None, **options) -> VectorizedEngine:
    """A vectorized engine whose rounds box-test as ``box_tests`` says."""
    engine = VectorizedEngine(**options)
    engine._box_tests = box_tests
    return engine


def test_pruning_parity_and_reduction():
    points = make_geolife_like(40_000, seed=0)
    pruned = _engine(True).detect(points, EPS, MIN_PTS)
    plain = _engine(False).detect(points, EPS, MIN_PTS)
    rule = _engine().detect(points, EPS, MIN_PTS)
    for result in (plain, rule):
        assert np.array_equal(pruned.outlier_mask, result.outlier_mask)
        assert np.array_equal(pruned.core_mask, result.core_mask)
    assert (
        pruned.stats["distance_computations"]
        < plain.stats["distance_computations"]
    )
    assert pruned.stats["pairs_skipped_covered"] > 0


def _inputs(kernel: str):
    """``(name, points, eps, min_pts)`` for every A6a input."""
    yield "geolife 200k", dataset(), EPS, MIN_PTS
    n_mixture = MIXTURE_POINTS[kernel]
    yield (
        f"mixture5d {n_mixture // 1000}k", mixture_5d(n_mixture), 2.0, 60
    )
    for n_dims in DIMENSIONS:
        yield f"A5 d={n_dims}", a5_dataset(n_dims), a5_eps_for(n_dims), 10


def _round_rows(kernel: str, name: str, points, eps: float, min_pts: int):
    """Time the three variants on one input; one row per decided round."""
    best: dict[str, dict[str, float]] = {}
    results = {}
    for _ in range(REPEATS):
        for label, box_tests in VARIANTS:
            result = _engine(box_tests, kernel=kernel).detect(
                points, eps, min_pts
            )
            phases = result.timings.phases
            times = best.setdefault(label, {})
            for round_name in ROUNDS:
                times[round_name] = min(
                    times.get(round_name, np.inf), phases[round_name]
                )
            results[label] = result
    rule = results["rule"]
    for label in ("on", "off"):
        assert np.array_equal(results[label].outlier_mask, rule.outlier_mask)
        assert np.array_equal(results[label].core_mask, rule.core_mask)
    rows = []
    for round_name in ROUNDS:
        density = rule.stats[f"pair_density.{round_name}"]
        if density == 0.0:  # no non-self cell pairs: nothing to decide
            continue
        on_ms = 1000.0 * best["on"][round_name]
        off_ms = 1000.0 * best["off"][round_name]
        pick = rule.stats[f"box_tests.{round_name}"]
        rows.append(
            {
                "kernel": kernel,
                "input": name,
                "n_points": int(points.shape[0]),
                "round": round_name,
                "pair_density": round(density, 2),
                "on_ms": round(on_ms, 1),
                "off_ms": round(off_ms, 1),
                "rule_ms": round(1000.0 * best["rule"][round_name], 1),
                "rule_box_tests": bool(pick),
                "pick_faster": bool(pick) == (on_ms < off_ms),
            }
        )
    return rows


def main() -> None:
    # Without a compiler "c" falls back to NumPy: run that kernel once.
    kernels_run = list(
        dict.fromkeys(resolve_kernel(kernel).name for kernel in KERNELS)
    )
    rows: list[dict] = []
    for kernel in kernels_run:
        for name, points, eps, min_pts in _inputs(kernel):
            rows.extend(_round_rows(kernel, name, points, eps, min_pts))
    print(
        format_table(
            [
                "kernel", "input", "round", "p / c", "on ms", "off ms",
                "rule ms", "rule", "pick faster",
            ],
            [
                [
                    row["kernel"], row["input"], row["round"],
                    row["pair_density"], row["on_ms"], row["off_ms"],
                    row["rule_ms"], "on" if row["rule_box_tests"] else "off",
                    "yes" if row["pick_faster"] else "no",
                ]
                for row in rows
            ],
            title=(
                "Ablation A6a: box tests per round (on / off forced, rule "
                "= on iff p / c >= "
                + ", ".join(
                    f"{k}: {v}" for k, v in BOX_TEST_MIN_PAIR_DENSITY.items()
                )
                + f"; min over {REPEATS} fits)"
            ),
        )
    )
    faster = sum(row["pick_faster"] for row in rows)
    print(f"rule picked the faster side in {faster} of {len(rows)} rounds\n")

    BENCH_STATS.clear()
    BENCH_STATS.update(
        {
            "n_points": N_POINTS,
            "eps": EPS,
            "min_pts": MIN_PTS,
            "kernels_run": kernels_run,
            "box_test_min_pair_density": dict(BOX_TEST_MIN_PAIR_DENSITY),
            "rounds": rows,
            "rule_picked_faster": faster,
            "rounds_decided": len(rows),
        }
    )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
