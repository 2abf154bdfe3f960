"""The two fit workloads: ``fit-geolife3d`` (d=3) and ``fit-mixture5d`` (d=5).

Untraced, one operation is ``DBSCOUT(eps, min_pts).fit`` on a fresh
copy of the input, with every other option at its default.  Set-up is
measured in fresh processes (``setup_child.py``).

Traced, each iteration times the layers' entry points on the same
input: ``Grid(points, eps)``, the cell adjacency (the stencil builder
below d=4, the grid tree from d=4), and a fit whose ``kernel=`` is a
timing wrapper around the default kernel.  Untraced fits alternate with
the traced iterations to give the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time

import numpy as np

import gen
from common import Run
from procs import WORK, mapped_kernel, peak_rss_mb, python_child
from spans import peak_traced_mb, span_ms, timing_kernel

FITS = {
    "fit-geolife3d": (gen.geolife_like, 100.0, 10),
    "fit-mixture5d": (gen.mixture_5d, 2.0, 60),
}

#: Fresh-process set-ups per run.
SETUP_REPEATS = 5
MIN_FITS = 5
PRUNING_COUNTERS = (
    "pairs_self_covered", "pairs_skipped_covered", "pairs_skipped_excluded",
)


def _setup_samples(run: Run, points: np.ndarray, eps: float, min_pts: int,
                   expected: np.ndarray) -> None:
    slice_path = WORK / f"{run.workload}-slice.npy"
    np.save(slice_path, points)
    for _ in range(SETUP_REPEATS):
        child = python_child(
            "setup_child.py", str(slice_path), repr(eps), str(min_pts),
            stdout=subprocess.PIPE, text=True,
        )
        out, _ = child.communicate()
        if child.returncode != 0:
            run.ledger.fail(f"set-up process exited {child.returncode}")
            continue
        sample = json.loads(out.strip().splitlines()[-1])
        labels = np.zeros(points.shape[0], dtype=bool)
        labels[sample["outliers"]] = True
        run.ledger.check("set-up fit", labels, expected)
        run.processes.append({
            "role": "setup", "repro": sample["repro"],
            "kernel": sample["kernel"],
        })
        run.setup_s.append(sample["setup_s"])


def run_workload(run: Run) -> None:
    make, eps, min_pts = FITS[run.workload]
    points = make(run.seed)
    first_slice = points[: points.shape[0] // 100]  # 1% of the input

    import repro
    from repro import DBSCOUT

    # The reference fit doubles as the warm-up: it fills the bytecode
    # and compiled-kernel caches the set-up processes then find warm.
    detector = DBSCOUT(eps=eps, min_pts=min_pts)
    reference = detector.fit(points.copy()).outlier_mask
    run.pin(reference)

    if run.trace:
        _traced(run, points, eps, min_pts, reference)
    else:
        slice_labels = DBSCOUT(eps=eps, min_pts=min_pts).fit(
            first_slice.copy()).outlier_mask
        _setup_samples(run, first_slice, eps, min_pts, slice_labels)
        for _ in run.until_deadline(MIN_FITS):
            work = points.copy()
            started = time.perf_counter()
            try:
                labels = DBSCOUT(eps=eps, min_pts=min_pts).fit(work).outlier_mask
            except Exception as exc:  # noqa: BLE001 - a failed operation
                run.ledger.fail(f"fit raised {type(exc).__name__}: {exc}")
                continue
            run.latencies_s.append(time.perf_counter() - started)
            run.ledger.check("fit", labels, reference)
    run.peak_rss_mb = peak_rss_mb()
    run.processes.append({
        "role": "benchmark", "repro": repro.__file__, "kernel": mapped_kernel(),
    })
    run.ledger.check(
        "classify on the training points",
        np.asarray(detector.classify(points)).astype(bool), reference,
    )


def _adjacency_builder(run: Run, n_dims: int):
    """The cell-adjacency entry point the default planner uses at
    ``n_dims``, as ``cells -> adjacency``; ``None`` when missing."""
    spans = run.spans
    if n_dims >= 4:
        build = spans.lookup("repro.core.celltree", "build_tree_adjacency")
        return build and (lambda cells: build(cells))
    build = spans.lookup("repro.core.vectorized", "build_cell_adjacency")
    stencil = spans.lookup("repro.core.neighbors", "NeighborStencil")
    if build is None or stencil is None:
        return None
    return lambda cells: build(cells, stencil(n_dims))


def _traced(run: Run, points, eps, min_pts, reference) -> None:
    from repro import DBSCOUT

    spans = run.spans
    grid_class = spans.lookup("repro.core.grid", "Grid")
    adjacency = _adjacency_builder(run, points.shape[1])
    kernel_base = spans.lookup("repro.core.kernels", "Kernel")
    resolve = spans.lookup("repro.core.kernels", "resolve_kernel")

    def call_layer(name, call):
        try:
            return call()
        except TypeError:  # the entry point changed its signature
            spans.note_missing(name)
            return None

    if grid_class is not None and adjacency is not None:
        cells = grid_class(points, eps).cells
        run.layers["adjacency.peak_mb"] = peak_traced_mb(lambda: adjacency(cells))

    traced_ms, untraced_ms, rest_ms, busy_ms = [], [], [], []
    for number in run.until_deadline(MIN_FITS):
        layer_ms = 0.0
        grid = None
        if grid_class is not None:
            with spans.span("grid", op=number) as record:
                grid = call_layer("Grid(points, eps)",
                                  lambda: grid_class(points, eps))
            layer_ms += span_ms(record)
        if grid is not None and adjacency is not None:
            with spans.span("adjacency", op=number) as record:
                call_layer("adjacency(cells)", lambda: adjacency(grid.cells))
            layer_ms += span_ms(record)
        kernel = None
        if kernel_base is not None and resolve is not None:
            kernel = timing_kernel(kernel_base, resolve("auto"), spans)
        work = points.copy()
        with spans.span("fit", op=number) as record:
            try:
                result = DBSCOUT(eps=eps, min_pts=min_pts, kernel=kernel).fit(work)
            except (TypeError, ValueError):  # no kernel= option
                spans.note_missing("DBSCOUT(kernel=...)")
                kernel = None
                result = DBSCOUT(eps=eps, min_pts=min_pts).fit(work)
        fit_ms = span_ms(record)
        run.ledger.check("traced fit", result.outlier_mask, reference)
        traced_ms.append(fit_ms)
        busy = kernel.busy_ms if kernel is not None else 0.0
        busy_ms.append(busy)
        rest_ms.append(fit_ms - busy - layer_ms)
        counters = {"kernel.pairs": kernel.pairs if kernel else None,
                    "kernel.hits": kernel.hits if kernel else None}
        for name in ("distance_computations", "planner.cell_pairs_examined",
                     *PRUNING_COUNTERS):
            counters[name] = spans.counter(result.stats, name)
        run.record_counters(counters)

        work = points.copy()
        started = time.perf_counter()
        labels = DBSCOUT(eps=eps, min_pts=min_pts).fit(work).outlier_mask
        untraced_ms.append((time.perf_counter() - started) * 1e3)
        run.ledger.check("fit", labels, reference)

    counts = run.counters["values"]
    pruning = [counts[name] for name in PRUNING_COUNTERS]
    pairs = counts["kernel.pairs"]
    run.layers.update({
        "grid.build_ms": spans.median_ms("grid"),
        "adjacency.build_ms": spans.median_ms("adjacency"),
        "adjacency.cell_pairs_examined": counts["planner.cell_pairs_examined"] or 0,
        "kernel.busy_ms": statistics.median(busy_ms),
        "kernel.pairs": pairs or 0,
        "kernel.hit_ratio": counts["kernel.hits"] / pairs if pairs else 0.0,
        "plan.rest_ms": statistics.median(rest_ms),
        "pruning.pairs_skipped": sum(pruning) if None not in pruning else 0,
        "fit.distance_computations": counts["distance_computations"] or 0,
        "trace.overhead_pct": 100.0 * (
            statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
        ),
    })

