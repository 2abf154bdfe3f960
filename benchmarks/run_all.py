"""Run every benchmark's paper-style report and archive the outputs.

Usage:
    python benchmarks/run_all.py [--results-dir results] [--quick] [--json]

Executes each ``bench_*.py`` module's ``main()`` in order, echoes the
tables to stdout, and writes each module's captured output to
``<results-dir>/<bench>.txt`` plus a combined ``report.txt``.  With
``--quick``, only the fast benches run (skips the large scalability
sweeps).  With ``--json``, additionally writes one machine-readable
``<results-dir>/BENCH_<bench>.json`` per bench containing the wall time
plus whatever the module published in its ``BENCH_STATS`` dict
(distance-computation counters, per-round box-test timings, ...) and, under
``run_records``, the structured :mod:`repro.obs` run record of every
detector fit the bench performed — the input
``benchmarks/check_regression.py`` compares between two runs.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import pathlib
import sys
import time

FAST_BENCHES = [
    "bench_table1_neighbors",
    "bench_ablation_join_strategies",
    "bench_ablation_engines",
    "bench_ablation_incremental",
    "bench_ablation_clustering_cost",
    "bench_ablation_dimensionality",
    "bench_ablation_pruning",
    "bench_ablation_kernels",
    "bench_extension_geospatial_quality",
    "bench_serving_throughput",
    "bench_qa_fuzz",
]

SLOW_BENCHES = [
    "bench_streaming_ingest",
    "bench_telemetry_overhead",
    "bench_table2_scalability",
    "bench_fig11_geolife_eps",
    "bench_fig12_osm_eps",
    "bench_fig13_partitions",
    "bench_table3_quality",
    "bench_table4_rpdbscan_geolife",
    "bench_table5_rpdbscan_osm",
]


def run_bench(
    module_name: str, collect_records: bool = False
) -> tuple[str, float, dict, list[dict]]:
    """Import and run one bench module's main().

    Returns ``(output, secs, stats, records)`` where ``stats`` is the
    module's ``BENCH_STATS`` dict (empty for modules that do not
    publish one) and ``records`` holds the dict form of every
    :class:`repro.obs.RunRecord` emitted during the bench (empty unless
    ``collect_records``).
    """
    from repro import obs

    module = importlib.import_module(module_name)
    buffer = io.StringIO()
    sink = obs.InMemorySink() if collect_records else None
    if sink is not None:
        obs.add_sink(sink)
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            module.main()
        elapsed = time.perf_counter() - start
    finally:
        if sink is not None:
            obs.remove_sink(sink)
    stats = dict(getattr(module, "BENCH_STATS", {}))
    records = (
        [record.to_dict() for record in sink.records] if sink else []
    )
    return buffer.getvalue(), elapsed, stats, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", default="results")
    parser.add_argument(
        "--quick", action="store_true", help="fast benches only"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write BENCH_<bench>.json machine-readable results",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    benches = FAST_BENCHES + ([] if args.quick else SLOW_BENCHES)
    results_dir = pathlib.Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    combined: list[str] = []
    for name in benches:
        print(f"===== {name} =====", flush=True)
        output, elapsed, stats, records = run_bench(
            name, collect_records=args.json
        )
        print(output)
        print(f"({elapsed:.1f}s)\n", flush=True)
        (results_dir / f"{name}.txt").write_text(output)
        combined.append(f"===== {name} =====\n{output}\n")
        if args.json:
            payload = {
                "bench": name,
                "wall_seconds": round(elapsed, 3),
                "stats": stats,
                "run_records": records,
            }
            (results_dir / f"BENCH_{name}.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
    (results_dir / "report.txt").write_text("".join(combined))
    print(f"wrote {len(benches)} reports to {results_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
