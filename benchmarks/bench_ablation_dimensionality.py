"""Ablation A5 — dimensionality: the k_d growth in practice.

Table I shows ``k_d`` exploding with the dimension (21 -> 8M for
d = 2..9), but the paper argues that in practice the *non-empty*
neighbors per cell stay far below the theoretical stencil size because
data gets sparser with d.  This ablation runs DBSCOUT on Gaussian
mixtures of fixed size across d = 1..5 and reports both the stencil
constant and the realized work (distance computations per point,
non-empty neighbor statistics), plus the grid-tree cell planner's
``planner.cell_pairs_examined`` counter against the stencil planner's
— the tree stops paying the full ``k_d`` enumeration per cell once
the grid gets sparse.

Exposes ``BENCH_STATS`` for ``run_all.py --json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.neighbors import count_neighbor_offsets
from repro.core.vectorized import VectorizedEngine, detect
from repro.experiments import format_table

N_POINTS = 20_000
DIMENSIONS = (1, 2, 3, 4, 5)

#: Machine-readable results for run_all.py --json, filled by main().
BENCH_STATS: dict[str, object] = {}


def dataset(n_dims: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(5, n_dims))
    which = rng.integers(0, 5, size=int(N_POINTS * 0.95))
    clusters = centers[which] + rng.normal(
        0.0, 0.4, size=(which.size, n_dims)
    )
    scatter = rng.uniform(
        -10.0, 10.0, size=(N_POINTS - which.size, n_dims)
    )
    return np.vstack([clusters, scatter])


def eps_for(n_dims: int) -> float:
    # Keep the expected number of eps-neighbors roughly constant: the
    # volume of the eps-ball must not collapse as d grows.
    return 0.8 * (1.35 ** (n_dims - 2))


def run_dimension(n_dims: int):
    points = dataset(n_dims)
    start = time.perf_counter()
    result = detect(points, eps_for(n_dims), 10)
    elapsed = time.perf_counter() - start
    return elapsed, result


def test_dimension_2(benchmark):
    benchmark.pedantic(lambda: run_dimension(2), rounds=2, iterations=1)


def test_dimension_4(benchmark):
    benchmark.pedantic(lambda: run_dimension(4), rounds=2, iterations=1)


def test_realized_work_grows_slower_than_kd():
    """The paper's sparsity argument: realized distance computations
    per point grow far slower than the stencil constant k_d."""
    work = {}
    for n_dims in (2, 4):
        _, result = run_dimension(n_dims)
        work[n_dims] = result.stats["distance_computations"] / N_POINTS
    kd_growth = count_neighbor_offsets(4) / count_neighbor_offsets(2)
    realized_growth = (work[4] + 1.0) / (work[2] + 1.0)
    assert realized_growth < kd_growth


def run_planner(n_dims: int, cell_planner: str):
    points = dataset(n_dims)
    engine = VectorizedEngine(kernel="numpy")
    engine._cell_planner = cell_planner
    start = time.perf_counter()
    result = engine.detect(points, eps_for(n_dims), 10)
    return time.perf_counter() - start, result


def test_tree_planner_prunes_high_dims():
    """At d >= 4 the grid tree must examine fewer cell pairs than the
    full-stencil enumeration, with bit-identical labels."""
    _, stencil = run_planner(4, "stencil")
    _, tree = run_planner(4, "tree")
    assert np.array_equal(stencil.outlier_mask, tree.outlier_mask)
    assert np.array_equal(stencil.core_mask, tree.core_mask)
    assert (
        tree.stats["planner.cell_pairs_examined"]
        < stencil.stats["planner.cell_pairs_examined"]
    )


def main() -> None:
    rows = []
    for n_dims in DIMENSIONS:
        elapsed, result = run_dimension(n_dims)
        rows.append(
            [
                n_dims,
                count_neighbor_offsets(n_dims),
                result.stats["n_cells"],
                round(result.stats["distance_computations"] / N_POINTS, 1),
                result.n_outliers,
                round(elapsed, 3),
            ]
        )
    print(
        format_table(
            [
                "d",
                "k_d (stencil)",
                "non-empty cells",
                "distances/point",
                "outliers",
                "seconds",
            ],
            rows,
            title=(
                "Ablation A5: dimensionality — theoretical stencil vs "
                f"realized work (n={N_POINTS})"
            ),
        )
    )

    planner_rows = []
    pairs_by_dim: dict[str, dict[str, int]] = {}
    for n_dims in DIMENSIONS:
        stencil_wall, stencil = run_planner(n_dims, "stencil")
        tree_wall, tree = run_planner(n_dims, "tree")
        assert np.array_equal(stencil.outlier_mask, tree.outlier_mask)
        assert np.array_equal(stencil.core_mask, tree.core_mask)
        s_pairs = stencil.stats["planner.cell_pairs_examined"]
        t_pairs = tree.stats["planner.cell_pairs_examined"]
        pairs_by_dim[str(n_dims)] = {
            "stencil": int(s_pairs),
            "tree": int(t_pairs),
        }
        planner_rows.append(
            [
                n_dims,
                s_pairs,
                t_pairs,
                round(s_pairs / max(1, t_pairs), 1),
                round(stencil_wall, 3),
                round(tree_wall, 3),
            ]
        )
    print()
    print(
        format_table(
            [
                "d",
                "pairs (stencil)",
                "pairs (tree)",
                "reduction",
                "stencil (s)",
                "tree (s)",
            ],
            planner_rows,
            title=(
                "Ablation A5b: cell-pair enumeration — full stencil vs "
                "grid-tree planner (labels bit-identical)"
            ),
        )
    )

    BENCH_STATS.clear()
    BENCH_STATS.update(
        {
            "n_points": N_POINTS,
            "dimensions": list(DIMENSIONS),
            "planner_cell_pairs_examined": pairs_by_dim,
        }
    )


if __name__ == "__main__":
    main()
