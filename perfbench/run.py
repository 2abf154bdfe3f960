"""The repository benchmark: four workloads, end-to-end and per-layer.

Run it from the repository root::

    python3 perfbench/run.py --workload fit-geolife3d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all        # all workloads, seeds 0 and 1, traced runs
    python3 perfbench/run.py --self-test  # injected faults must be caught

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fit-geolife3d`` -- ``DBSCOUT(eps=100, min_pts=10).fit`` on 200,000
  skewed 3-D GPS-like points (``wl_fit.py``);
* ``fit-mixture5d`` -- ``DBSCOUT(eps=2.0, min_pts=60).fit`` on 100,000
  points of a 5-D Gaussian mixture (``wl_fit.py``);
* ``serve-query`` -- closed-loop 8-point queries against
  ``repro serve`` holding the geolife model (``wl_serve.py``);
* ``stream-churn`` -- ``repro serve --live`` with a 20,000-point window,
  200 arrivals, a hot swap and one probe per step (``wl_stream.py``).

Inputs come from ``gen.py`` and the seed alone.  Untraced runs
(``--trace 0``) use only ``DBSCOUT``, ``DetectorArtifact``,
``repro serve [--live]`` and ``OutlierClient`` with default options and
report the end-to-end metrics: ``setup_s`` (median of several
fresh-process set-ups), ``latency_p90_ms`` per operation (the mean and
median are printed too), and ``peak_rss_mb`` of the process that runs
the program.  Traced runs (``--trace 1``) time the
layers' entry points from the benchmark's own code and report the
per-layer metrics.  Every output is checked (``checks.py``); failed or
wrong operations count against ``attempted``, and ``error_rate`` is
``failed / attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of a run -- provenance, label digests, exact program counters -- is
written to ``perfbench/.work/results/``, and a traced run's spans to
``perfbench/.work/traces/``.
"""

from __future__ import annotations

import procs

procs.prepare_environment()  # before anything imports NumPy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import wl_fit  # noqa: E402
import wl_serve  # noqa: E402
import wl_stream  # noqa: E402
from checks import DEFAULT_SEED, Ledger  # noqa: E402
from common import Run  # noqa: E402

WORKLOADS = {
    "fit-geolife3d": wl_fit.run_workload,
    "fit-mixture5d": wl_fit.run_workload,
    "serve-query": wl_serve.run_workload,
    "stream-churn": wl_stream.run_workload,
}
SPEC_PATH = procs.ROOT / "BENCHMARK.json"
OTHER_SEED = 1


def _end_to_end(run: Run) -> dict[str, float]:
    """End-to-end values of an untraced run.

    The median and mean latency are printed and recorded but are not
    ``BENCHMARK.json`` metrics.  On a host whose speed switches between
    two levels, a served query's latency is bimodal: the median of a run
    lands in either mode, and the mean moves with the share of time
    spent in each.  The 90th percentile sits in the slow mode and stays
    put unless that mode all but disappears.
    """
    latencies_ms = np.asarray(run.latencies_s or [0.0]) * 1e3
    return {
        "setup_s": statistics.median(run.setup_s) if run.setup_s else 0.0,
        "latency_mean_ms": float(latencies_ms.mean()),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p90_ms": float(np.percentile(latencies_ms, 90)),
        "peak_rss_mb": run.peak_rss_mb,
    }


def run_one(args, spec: dict) -> tuple[dict, dict]:
    """Run one workload; return the result line and the full record."""
    ledger = Ledger(fault=args.fault)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ledger)
    probe_start = procs.host_probe_ms()
    try:
        WORKLOADS[args.workload](run)
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        ledger.fail(f"workload aborted: {type(exc).__name__}: {exc}")
    probe_end = procs.host_probe_ms()

    for process in run.processes:
        if not procs.inside_checkout(process["repro"]):
            ledger.fail(f"{process['role']} imported repro from "
                        f"{process['repro']}, not this checkout")
    if run.trace:
        values, names = run.layers, spec["per_layer"]
    else:
        values, names = _end_to_end(run), spec["end_to_end"]
    reported = {metric["name"] for metric in names}
    # A layer this workload does not exercise did no work here: 0.
    metrics = {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in names
    }
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "result": result,
        "error_rate": ledger.error_rate, "failures": ledger.reasons,
        "unreported": {k: v for k, v in values.items() if k not in reported},
        "samples": {"setup": len(run.setup_s),
                    "latency": len(run.latencies_s)},
        "setup_s": run.setup_s, "latencies_s": run.latencies_s,
        "digests": run.digests, "counters": run.counters,
        "missing": run.spans.missing,
        "provenance": {
            "commit": procs.commit(),
            "source_sha256": procs.source_digest(),
            "processes": run.processes,
            "nproc": procs.nproc(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "host_probe_ms": {"start": probe_start, "end": probe_end},
        },
    }
    name = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    if run.trace:
        run.spans.write(procs.WORK / "traces" / name, {"record": record})
    path = procs.WORK / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    return result, record


def _print_summary(record: dict) -> None:
    result = record["result"]
    print(f"{record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} seconds={record['seconds']:g} "
          f"samples={record['samples']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in record["unreported"].items():
        print(f"  ({name}){'':{30 - len(name)}s} {value:14.4f}")
    print(f"  {'error_rate':32s} {record['error_rate']:14.4f} "
          f"({result['failed']}/{result['attempted']})")
    for reason, count in record["failures"].items():
        print(f"  failed x{count}: {reason}")
    if record["missing"]:
        print(f"  missing: {', '.join(record['missing'])}")
    kernels = sorted({p["kernel"] for p in record["provenance"]["processes"]})
    print(f"  kernel: {'/'.join(kernels)}  nproc: "
          f"{record['provenance']['nproc']}  host probe ms: "
          f"{record['provenance']['host_probe_ms']}")


def _child(workload: str, seed: int, seconds: float, trace: int,
           fault: str | None = None) -> tuple[dict, dict]:
    """Run one workload in a fresh process; return (result, record)."""
    command = [sys.executable, str(procs.HERE / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        command += ["--fault", fault]
    done = subprocess.run(command, cwd=procs.ROOT, capture_output=True,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads((procs.WORK / "results" / name).read_text())
    return result, record


def _layer_shares(layers: dict[str, dict]) -> list[tuple[str, bool]]:
    """The layer shares the workloads were chosen for."""
    def value(workload, name):
        return layers[workload][name]["value"]

    def fit_total(workload):
        return sum(value(workload, name) for name in (
            "grid.build_ms", "adjacency.build_ms", "kernel.busy_ms",
            "plan.rest_ms"))

    checks = []
    if "fit-geolife3d" in layers:
        geo = {name: value("fit-geolife3d", name) for name in (
            "grid.build_ms", "kernel.busy_ms", "plan.rest_ms")}
        checks.append(("adjacency is the largest layer of fit-geolife3d",
                       value("fit-geolife3d", "adjacency.build_ms")
                       > max(geo.values())))
        checks.append(("kernel <= 5% of the traced fit on fit-geolife3d",
                       value("fit-geolife3d", "kernel.busy_ms")
                       <= 0.05 * fit_total("fit-geolife3d")))
    if "fit-mixture5d" in layers:
        checks.append(("kernel >= 30% of the traced fit on fit-mixture5d",
                       value("fit-mixture5d", "kernel.busy_ms")
                       >= 0.30 * fit_total("fit-mixture5d")))
    if "stream-churn" in layers:
        others = [value("stream-churn", name) for name in (
            "live.ingest_ms", "snapshot.export_ms", "swap.ms",
            "classify.first_after_swap_ms", "wire.overhead_ms")]
        checks.append(("incremental.detect is the largest layer of "
                       "stream-churn",
                       value("stream-churn", "incremental.detect_ms")
                       > max(others)))
    if "serve-query" in layers:
        others = [value("serve-query", name) for name in (
            "service.overhead_ms", "wire.overhead_ms")]
        checks.append(("classify is the largest layer of serve-query",
                       value("serve-query", "classify.ms") > max(others)))
    return checks


def run_all(args) -> int:
    """Every workload untraced on two seeds and traced twice on the
    default seed; checks outputs, counter repeatability, layer shares."""
    problems, layers = [], {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, OTHER_SEED):
            result, record = _child(workload, seed, args.seconds, 0)
            _print_summary(record)
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: wrong outputs")
        counters = []
        for _ in range(2):
            result, record = _child(workload, DEFAULT_SEED, args.seconds, 1)
            _print_summary(record)
            print(f"  counters: {record['counters']}")
            counters.append(record["counters"])
            if not result["correct"]:
                problems.append(f"{workload} traced: wrong outputs")
        layers[workload] = result["metrics"]
        if not all(c.get("repeat") for c in counters) or (
                counters[0].get("values") != counters[1].get("values")):
            problems.append(f"{workload}: exact counters did not repeat")
    for claim, holds in _layer_shares(layers):
        print(f"{'holds' if holds else 'FAILS'}: {claim}")
        if not holds:
            problems.append(f"layer share: {claim}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def self_test(args) -> int:
    """One flipped label and one dropped answer must each raise
    error_rate above zero on every workload."""
    missed = 0
    for workload in WORKLOADS:
        for fault in ("flip", "drop"):
            result, record = _child(workload, DEFAULT_SEED, args.seconds, 0,
                                    fault)
            caught = result["failed"] >= 1 and not result["correct"]
            missed += not caught
            print(f"{workload:14s} {fault:4s} error_rate="
                  f"{record['error_rate']:.4f} "
                  f"{'caught' if caught else 'MISSED'} {record['failures']}")
    return 1 if missed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                        "run_seconds of BENCHMARK.json; 5 for --all, 1 for "
                        "--self-test)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", choices=("flip", "drop"),
                        help="inject one defect into the checked outputs")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--self-test", action="store_true",
                        help="show that injected faults raise error_rate")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the servers a run started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not procs.program_present():
        print(f"error: no program at {procs.SRC / 'repro'}; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    if args.all or args.self_test:
        if args.seconds is None:
            args.seconds = 5.0 if args.all else 1.0
        return run_all(args) if args.all else self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    result, record = run_one(args, spec)
    _print_summary(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
