"""Compare two observability captures and fail on performance regressions.

Usage:
    python benchmarks/check_regression.py BASELINE CANDIDATE \
        [--max-wall-regression 0.25] [--max-counter-regression 0.10] \
        [--counters engine.distance_computations,...] [--show-all]

    # Or gate a fresh capture against the committed baselines:
    python benchmarks/check_regression.py CANDIDATE \
        [--baseline-dir benchmarks/baselines/c]

With a single positional path it is the *candidate* and the baseline
comes from ``--baseline-dir`` (default ``benchmarks/baselines/c``,
the committed compiled-kernel capture) — the one-argument CI form.

``BASELINE`` and ``CANDIDATE`` each name one of:

* a JSONL run-record file (written by ``python -m repro detect
  --record PATH`` or an ``obs.JsonlSink``);
* a single ``BENCH_<bench>.json`` file produced by
  ``benchmarks/run_all.py --json``;
* a results directory holding ``BENCH_*.json`` files.

Run records are paired by bench and run signature (engine,
parameters, dataset shape, and engine configuration) in emission
order, then diffed with :func:`repro.obs.diff_records`.  A record from
a ``BENCH_*.json`` payload only pairs with one from the same bench;
JSONL records carry no bench name and pair by signature alone.  Any
phase or total wall time growing by more than
``--max-wall-regression`` (fraction) or any counter growing by more
than ``--max-counter-regression`` flags a regression;
the exit code is the number of flagged entries (0 = pass), which makes
the script directly usable as a CI gate.

Counters are deterministic (distance computations, shuffle volumes,
box-test totals), so the counter threshold can be tight; wall-clock
thresholds should leave headroom for machine noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs import RunRecord, diff_records, format_diff  # noqa: E402


#: A run record and the bench that emitted it (``None`` for JSONL).
BenchRecord = tuple[str | None, RunRecord]


def _records_from_bench_payload(payload: dict) -> list[BenchRecord]:
    bench = payload.get("bench")
    return [
        (bench, RunRecord.from_dict(item))
        for item in payload.get("run_records", [])
    ]


def load_records(path: str | pathlib.Path) -> list[BenchRecord]:
    """Load ``(bench, record)`` pairs from a JSONL file, BENCH json, or
    results dir."""
    path = pathlib.Path(path)
    if path.is_dir():
        records: list[BenchRecord] = []
        for bench_file in sorted(path.glob("BENCH_*.json")):
            with open(bench_file, "r", encoding="utf-8") as handle:
                records.extend(
                    _records_from_bench_payload(json.load(handle))
                )
        return records
    with open(path, "r", encoding="utf-8") as handle:
        head = handle.read(1)
        handle.seek(0)
        if head == "{":
            text = handle.read()
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                payload = None
            if isinstance(payload, dict) and "run_records" in payload:
                return _records_from_bench_payload(payload)
            # Fall through: JSONL where each line is a record dict.
            return [
                (None, RunRecord.from_dict(json.loads(line)))
                for line in text.splitlines()
                if line.strip()
            ]
    raise SystemExit(f"error: unrecognized record file {path}")


def run_signature(record: RunRecord) -> str:
    """Stable pairing key: what the run computed, not how fast."""
    config_keys = (
        "engine",
        "algorithm",
        "join_strategy",
        "num_partitions",
        "kernel",
        "cell_planner",
        "seed",
    )
    config = {
        key: record.context[key]
        for key in config_keys
        if key in record.context
    }
    return json.dumps(
        [record.engine, record.params, record.dataset, config],
        sort_keys=True,
        default=str,
    )


def pair_records(
    baseline: list[BenchRecord], candidate: list[BenchRecord]
) -> tuple[list[tuple[RunRecord, RunRecord]], int]:
    """Pair records of one bench with equal signatures in emission order.

    Returns the pairs plus the number of unmatched records (present on
    only one side — a changed bench matrix, not a regression).
    """
    from collections import defaultdict

    base_groups: dict[tuple, list[RunRecord]] = defaultdict(list)
    for bench, record in baseline:
        base_groups[bench, run_signature(record)].append(record)
    pairs: list[tuple[RunRecord, RunRecord]] = []
    unmatched = 0
    for bench, record in candidate:
        group = base_groups.get((bench, run_signature(record)))
        if group:
            pairs.append((group.pop(0), record))
        else:
            unmatched += 1
    unmatched += sum(len(group) for group in base_groups.values())
    return pairs, unmatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help=(
            "BASELINE CANDIDATE, or just CANDIDATE "
            "(baseline then comes from --baseline-dir)"
        ),
    )
    parser.add_argument(
        "--baseline-dir",
        default=str(REPO_ROOT / "benchmarks" / "baselines" / "c"),
        help=(
            "baseline capture used in the one-argument form "
            "(default: benchmarks/baselines/c)"
        ),
    )
    parser.add_argument(
        "--max-wall-regression",
        type=float,
        default=0.25,
        help="allowed fractional wall-time growth per phase (default 0.25)",
    )
    parser.add_argument(
        "--max-counter-regression",
        type=float,
        default=0.10,
        help="allowed fractional counter growth (default 0.10)",
    )
    parser.add_argument(
        "--min-wall-seconds",
        type=float,
        default=0.05,
        help=(
            "ignore wall regressions where both sides are below this "
            "many seconds — micro-phase scheduler jitter, not a "
            "slowdown (default 0.05; counters are never filtered)"
        ),
    )
    parser.add_argument(
        "--counters",
        help="comma list restricting which counters are compared",
    )
    parser.add_argument(
        "--show-all",
        action="store_true",
        help="print the full diff table for every pair, not just failures",
    )
    args = parser.parse_args(argv)
    if len(args.paths) == 1:
        baseline_path, candidate_path = args.baseline_dir, args.paths[0]
    elif len(args.paths) == 2:
        baseline_path, candidate_path = args.paths
    else:
        parser.error(
            f"expected 1 or 2 positional paths, got {len(args.paths)}"
        )

    baseline = load_records(baseline_path)
    candidate = load_records(candidate_path)
    if not baseline or not candidate:
        print(
            f"error: no run records found "
            f"(baseline={len(baseline)}, candidate={len(candidate)})",
            file=sys.stderr,
        )
        return 2
    pairs, unmatched = pair_records(baseline, candidate)
    if unmatched:
        print(
            f"note: {unmatched} record(s) without a counterpart "
            f"were skipped",
            file=sys.stderr,
        )
    if not pairs:
        print("error: no comparable record pairs", file=sys.stderr)
        return 2

    counters = (
        [name.strip() for name in args.counters.split(",") if name.strip()]
        if args.counters
        else None
    )
    n_flagged = 0
    for base_record, cand_record in pairs:
        diff = diff_records(base_record, cand_record, counters=counters)
        flagged = [
            entry
            for entry in diff.regressions(
                max_wall_fraction=args.max_wall_regression,
                max_counter_fraction=args.max_counter_regression,
            )
            if entry.kind == "counter"
            or max(entry.baseline, entry.candidate)
            >= args.min_wall_seconds
        ]
        label = (
            f"{base_record.engine} "
            f"n={base_record.dataset.get('n_points', '?')} "
            f"({base_record.run_id} -> {cand_record.run_id})"
        )
        if flagged:
            n_flagged += len(flagged)
            print(f"REGRESSION {label}")
            for entry in flagged:
                growth = entry.regression_fraction()
                growth_text = (
                    "new" if growth == float("inf") else f"+{growth:.1%}"
                )
                print(
                    f"  {entry.kind} {entry.name}: "
                    f"{entry.baseline:g} -> {entry.candidate:g} "
                    f"({growth_text})"
                )
            if args.show_all:
                print(format_diff(diff))
        elif args.show_all:
            print(f"ok {label}")
            print(format_diff(diff))
    verdict = "PASS" if n_flagged == 0 else "FAIL"
    print(
        f"check_regression: {verdict} — {len(pairs)} pair(s) compared, "
        f"{n_flagged} regression(s) flagged, {unmatched} unmatched "
        f"record(s) skipped"
    )
    return min(n_flagged, 125)


if __name__ == "__main__":
    sys.exit(main())
