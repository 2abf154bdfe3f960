"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``detect`` — run DBSCOUT on a CSV/NPY point file and print (or save)
  the outlier indices.
* ``estimate-eps`` — print the k-distance elbow eps for a dataset.
* ``generate`` — write one of the built-in synthetic datasets to disk.

* ``fit`` — fit a detector and save it as a servable artifact.
* ``serve`` — load artifacts and answer queries over TCP; with
  ``--live`` also host a live streaming detector whose snapshots are
  hot-swapped into the registry as data arrives.
* ``query`` — classify points against a running server.
* ``stream`` — feed a file or stdin into a served live detector.
* ``top`` — live telemetry dashboard for a running server or driver.

Examples:
    python -m repro detect points.csv --eps 0.5 --min-pts 10
    python -m repro detect points.npy --min-pts 10 --auto-eps
    python -m repro estimate-eps points.csv --min-pts 10
    python -m repro generate osm --n 100000 --output osm.npy
    python -m repro fit points.npy --eps 0.5 --min-pts 10 \\
        --save-artifact geo.npz --name geo
    python -m repro serve geo.npz --port 7227 --metrics-port 9090
    python -m repro serve --live gps --live-eps 0.5 --live-min-pts 10 \\
        --window 100000 --refresh-points 4096 --port 7227
    python -m repro query queries.csv --detector geo --port 7227
    python -m repro stream fixes.csv --connect 127.0.0.1:7227 \\
        --stream gps --batch-size 512
    python -m repro top --connect 127.0.0.1:7227
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import DBSCOUT, __version__, estimate_eps
from repro.core.kernels import KERNEL_NAMES
from repro.datasets import (
    make_blobs,
    make_circles,
    make_geolife_like,
    make_moons,
    make_openstreetmap_like,
)
from repro.datasets.io import load_points, save_outliers, save_points
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]

GENERATORS = {
    "blobs": lambda n, seed: make_blobs(
        n_inliers=max(n - n // 100, 1), n_outliers=n // 100, seed=seed
    ).points,
    "circles": lambda n, seed: make_circles(
        n_inliers=max(n - n // 100, 1), n_outliers=n // 100, seed=seed
    ).points,
    "moons": lambda n, seed: make_moons(
        n_inliers=max(n - n // 100, 1), n_outliers=n // 100, seed=seed
    ).points,
    "geolife": lambda n, seed: make_geolife_like(n, seed=seed),
    "osm": lambda n, seed: make_openstreetmap_like(n, seed=seed),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBSCOUT: scalable exact density-based outlier detection",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    detect = commands.add_parser(
        "detect", help="detect outliers in a CSV/NPY point file"
    )
    detect.add_argument("input", help="points file (.csv or .npy)")
    detect.add_argument("--eps", type=float, help="neighborhood radius")
    detect.add_argument(
        "--min-pts", type=int, required=True, help="density threshold"
    )
    detect.add_argument(
        "--auto-eps",
        action="store_true",
        help="estimate eps with the k-distance elbow (ignores --eps)",
    )
    detect.add_argument(
        "--engine",
        choices=("vectorized", "distributed"),
        default="vectorized",
    )
    detect.add_argument(
        "--num-partitions",
        type=int,
        default=8,
        help="partitions for the distributed engine",
    )
    detect.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        help="the vectorized engine's distance-kernel tier (default auto: "
        "the compiled C kernel when a compiler is available; labels are "
        "identical)",
    )
    detect.add_argument(
        "--output", help="write outlier indices here instead of stdout"
    )
    detect.add_argument(
        "--stats", action="store_true", help="print phase timings and stats"
    )
    detect.add_argument(
        "--trace",
        action="store_true",
        help="enable fine-grained span tracing and print the span tree",
    )
    detect.add_argument(
        "--profile",
        action="store_true",
        help="with --trace, also track per-span memory (tracemalloc)",
    )
    detect.add_argument(
        "--record",
        metavar="PATH",
        help="append the structured run record to this JSONL file",
    )

    estimate = commands.add_parser(
        "estimate-eps", help="print the k-distance elbow eps"
    )
    estimate.add_argument("input", help="points file (.csv or .npy)")
    estimate.add_argument("--min-pts", type=int, required=True)

    generate = commands.add_parser(
        "generate", help="write a built-in synthetic dataset"
    )
    generate.add_argument("dataset", choices=sorted(GENERATORS))
    generate.add_argument("--n", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True)

    fit = commands.add_parser(
        "fit",
        help="fit a detector and save it as a servable artifact",
    )
    fit.add_argument("input", help="points file (.csv or .npy)")
    fit.add_argument("--eps", type=float, help="neighborhood radius")
    fit.add_argument(
        "--min-pts", type=int, required=True, help="density threshold"
    )
    fit.add_argument(
        "--auto-eps",
        action="store_true",
        help="estimate eps with the k-distance elbow (ignores --eps)",
    )
    fit.add_argument(
        "--engine",
        choices=("vectorized", "distributed"),
        default="vectorized",
    )
    fit.add_argument(
        "--kernel",
        choices=KERNEL_NAMES,
        help="the vectorized engine's distance-kernel tier (default auto; "
        "labels are identical)",
    )
    fit.add_argument(
        "--save-artifact",
        required=True,
        metavar="PATH",
        help="write the fitted detector artifact (.npz) here",
    )
    fit.add_argument(
        "--name",
        help="detector name stored in the artifact "
        "(defaults to the artifact file stem)",
    )

    serve = commands.add_parser(
        "serve", help="serve detector artifacts over TCP (JSON lines)"
    )
    serve.add_argument(
        "artifacts",
        nargs="*",
        metavar="ARTIFACT",
        help="artifact files (.npz) to load and register",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7227)
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=65536,
        help="largest coalesced micro-batch, in points",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="pending requests before the service sheds load",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve GET /metrics (Prometheus text) and "
        "GET /telemetry (JSON) over HTTP on this port",
    )
    serve.add_argument(
        "--live",
        metavar="NAME",
        help="also host a live streaming detector under this name "
        "(enables the ingest/evict/swap_status ops)",
    )
    serve.add_argument(
        "--live-eps",
        type=float,
        metavar="EPS",
        help="neighborhood radius for the live detector",
    )
    serve.add_argument(
        "--live-min-pts",
        type=int,
        metavar="N",
        help="density threshold for the live detector",
    )
    serve.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="sliding count window for the live detector "
        "(omit to keep every ingested point)",
    )
    serve.add_argument(
        "--refresh-points",
        type=int,
        default=1024,
        metavar="N",
        help="hot-swap a fresh snapshot every N ingested points",
    )
    serve.add_argument(
        "--refresh-s",
        type=float,
        default=None,
        metavar="T",
        help="also hot-swap when the served snapshot is older than "
        "T seconds",
    )

    query = commands.add_parser(
        "query", help="classify points against a running server"
    )
    query.add_argument("input", help="points file (.csv or .npy)")
    query.add_argument(
        "--detector", required=True, help="registered detector name"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7227)
    query.add_argument(
        "--timeout",
        type=float,
        help="server-side deadline in seconds for this query",
    )
    query.add_argument(
        "--output", help="write outlier indices here instead of stdout"
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="also print the server's serve.* stats snapshot",
    )

    stream = commands.add_parser(
        "stream",
        help="feed a file or stdin into a served live detector",
    )
    stream.add_argument(
        "input",
        nargs="?",
        default="-",
        help="points file (.csv or .npy), or '-' to read CSV rows "
        "from stdin (default)",
    )
    stream.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'repro serve' with --live",
    )
    stream.add_argument(
        "--stream",
        default="live",
        dest="stream_name",
        metavar="NAME",
        help="attached stream name on the server",
    )
    stream.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="points per ingest request",
    )
    stream.add_argument(
        "--status",
        action="store_true",
        help="print the server's swap_status after the feed",
    )

    workers = commands.add_parser(
        "workers",
        help="run SparkLite worker process(es) against a net driver",
    )
    workers.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of the driver (a Context with executor='net')",
    )
    workers.add_argument(
        "--n",
        type=int,
        default=1,
        help="number of worker processes (1 runs inline in this process)",
    )
    workers.add_argument(
        "--name",
        default=None,
        help="worker name prefix reported to the driver",
    )

    top = commands.add_parser(
        "top",
        help="live telemetry dashboard for a server or net driver",
    )
    top.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="address of a running 'repro serve' server or a "
        "Context(executor='net') driver listener",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )

    compare = commands.add_parser(
        "compare",
        help="run DBSCOUT and the baselines on a file, print a summary",
    )
    compare.add_argument("input", help="points file (.csv or .npy)")
    compare.add_argument("--min-pts", type=int, required=True)
    compare.add_argument(
        "--eps", type=float, help="defaults to the k-distance elbow"
    )
    compare.add_argument(
        "--contamination",
        type=float,
        default=0.05,
        help="fraction handed to the score-based baselines",
    )
    compare.add_argument(
        "--detectors",
        default="dbscout,lof,iforest,knn",
        help="comma list from: dbscout,lof,iforest,ocsvm,knn,dbscan",
    )
    return parser


def _kernel_option(args: argparse.Namespace) -> dict[str, str]:
    """``--kernel`` as a DBSCOUT option, only when given: the
    distributed engine takes none, and ``DBSCOUT`` rejects it there."""
    return {} if args.kernel is None else {"kernel": args.kernel}


def _run_detect(args: argparse.Namespace) -> int:
    from repro import obs

    points = load_points(args.input)
    if args.auto_eps:
        eps = estimate_eps(points, args.min_pts)
        print(f"estimated eps: {eps:.6g}", file=sys.stderr)
    elif args.eps is not None:
        eps = args.eps
    else:
        print(
            "error: provide --eps or --auto-eps",
            file=sys.stderr,
        )
        return 2
    engine_options = _kernel_option(args)
    if args.engine == "distributed":
        engine_options["num_partitions"] = args.num_partitions
    detector = DBSCOUT(
        eps=eps,
        min_pts=args.min_pts,
        engine=args.engine,
        **engine_options,
    )
    sink = obs.JsonlSink(args.record) if args.record else None
    if args.trace:
        obs.enable_tracing()
    if args.profile:
        obs.enable_profiling()
    try:
        if sink is not None:
            obs.add_sink(sink)
        result = detector.fit(points)
    finally:
        if sink is not None:
            obs.remove_sink(sink)
        if args.profile:
            obs.disable_profiling()
        if args.trace:
            obs.disable_tracing()
    if args.trace and result.record is not None:
        print(obs.format_span_tree(result.record), file=sys.stderr)
    if args.record:
        print(f"run record appended to {args.record}", file=sys.stderr)
    if args.stats:
        print(f"points:   {result.n_points}", file=sys.stderr)
        print(f"core:     {result.n_core_points}", file=sys.stderr)
        print(f"outliers: {result.n_outliers}", file=sys.stderr)
        if result.timings is not None:
            print(f"timings:  {result.timings}", file=sys.stderr)
        for key in sorted(result.stats):
            print(f"stats.{key}: {result.stats[key]}", file=sys.stderr)
    if args.output:
        save_outliers(result.outlier_indices, args.output)
        print(
            f"{result.n_outliers} outlier indices written to {args.output}",
            file=sys.stderr,
        )
    else:
        for index in result.outlier_indices:
            print(int(index))
    return 0


def _run_estimate(args: argparse.Namespace) -> int:
    points = load_points(args.input)
    print(f"{estimate_eps(points, args.min_pts):.6g}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    import time

    from repro.baselines import (
        DBSCAN,
        IsolationForest,
        KNNOutlierDetector,
        LocalOutlierFactor,
        OneClassSVM,
    )
    from repro.experiments import format_table

    points = load_points(args.input)
    eps = args.eps if args.eps is not None else estimate_eps(
        points, args.min_pts
    )
    nu = args.contamination
    registry = {
        "dbscout": lambda: DBSCOUT(eps=eps, min_pts=args.min_pts).fit(points),
        "dbscan": lambda: DBSCAN(eps, args.min_pts).detect(points),
        "lof": lambda: LocalOutlierFactor(
            k=max(args.min_pts, 2), contamination=nu
        ).detect(points),
        "iforest": lambda: IsolationForest(contamination=nu, seed=0).detect(
            points
        ),
        "ocsvm": lambda: OneClassSVM(nu=nu, seed=0).detect(points),
        "knn": lambda: KNNOutlierDetector(
            k=max(args.min_pts, 1), contamination=nu
        ).detect(points),
    }
    names = [name.strip() for name in args.detectors.split(",") if name.strip()]
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(
            f"error: unknown detectors {unknown}; "
            f"choose from {sorted(registry)}",
            file=sys.stderr,
        )
        return 2
    rows = []
    for name in names:
        start = time.perf_counter()
        result = registry[name]()
        elapsed = time.perf_counter() - start
        rows.append([name, result.n_outliers, round(elapsed, 3)])
    print(
        format_table(
            ["detector", "outliers", "seconds"],
            rows,
            title=(
                f"{points.shape[0]} points, eps={eps:.6g}, "
                f"minPts={args.min_pts}, contamination={nu}"
            ),
        )
    )
    return 0


def _run_fit(args: argparse.Namespace) -> int:
    import pathlib

    from repro.serve import DetectorArtifact

    points = load_points(args.input)
    if args.auto_eps:
        eps = estimate_eps(points, args.min_pts)
        print(f"estimated eps: {eps:.6g}", file=sys.stderr)
    elif args.eps is not None:
        eps = args.eps
    else:
        print("error: provide --eps or --auto-eps", file=sys.stderr)
        return 2
    detector = DBSCOUT(
        eps=eps,
        min_pts=args.min_pts,
        engine=args.engine,
        **_kernel_option(args),
    )
    result = detector.fit(points)
    name = args.name or pathlib.Path(args.save_artifact).stem
    artifact = DetectorArtifact.from_model(
        detector.core_model_, name=name, source=str(args.input)
    )
    written = artifact.save(args.save_artifact)
    print(
        f"fitted {result.n_points} points "
        f"({result.n_core_points} core, {result.n_outliers} outliers); "
        f"artifact {name!r} written to {written}",
        file=sys.stderr,
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import OutlierService, load_artifact, run_server

    if not args.artifacts and not args.live:
        print(
            "error: provide artifact files and/or --live NAME",
            file=sys.stderr,
        )
        return 2
    service = OutlierService(
        max_queue=args.max_queue, max_batch_rows=args.max_batch_rows
    )
    for path in args.artifacts:
        artifact = load_artifact(path)
        service.register(artifact.name, artifact)
        print(
            f"loaded {artifact.name!r} from {path} "
            f"(eps={artifact.model.eps:.6g}, "
            f"min_pts={artifact.model.min_pts}, "
            f"{artifact.model.n_core_points} core points)",
            file=sys.stderr,
        )
    streams = None
    if args.live:
        from repro.stream import LiveDetector, StreamCoordinator

        if args.live_eps is None or args.live_min_pts is None:
            print(
                "error: --live needs --live-eps and --live-min-pts",
                file=sys.stderr,
            )
            return 2
        live = LiveDetector(
            eps=args.live_eps,
            min_pts=args.live_min_pts,
            window=args.window,
            name=args.live,
        )
        coordinator = StreamCoordinator(
            live,
            service,
            name=args.live,
            every_points=args.refresh_points,
            every_s=args.refresh_s,
        )
        streams = {args.live: coordinator}
        print(
            f"live detector {args.live!r} "
            f"(eps={args.live_eps:.6g}, min_pts={args.live_min_pts}, "
            f"window={live.policy.describe()})",
            file=sys.stderr,
        )
    try:
        run_server(
            service,
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            streams=streams,
        )
    finally:
        service.close()
    return 0


def _run_query(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.serve import OutlierClient

    points = load_points(args.input)
    with OutlierClient(args.host, args.port) as client:
        labels = client.query(args.detector, points, timeout=args.timeout)
        stats = client.stats() if args.stats else None
    outlier_indices = np.flatnonzero(labels == 1)
    if args.output:
        save_outliers(outlier_indices, args.output)
        print(
            f"{outlier_indices.size} outlier indices written to "
            f"{args.output}",
            file=sys.stderr,
        )
    else:
        for index in outlier_indices:
            print(int(index))
    print(
        f"{outlier_indices.size} outliers in {labels.size} points",
        file=sys.stderr,
    )
    if stats is not None:
        print(json.dumps(stats, indent=2, sort_keys=True), file=sys.stderr)
    return 0


def _run_generate(args: argparse.Namespace) -> int:
    points = GENERATORS[args.dataset](args.n, args.seed)
    save_points(points, args.output)
    print(
        f"wrote {points.shape[0]} x {points.shape[1]} points to {args.output}",
        file=sys.stderr,
    )
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.serve import OutlierClient

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --connect needs HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    if args.batch_size < 1:
        print(
            f"error: --batch-size must be >= 1, got {args.batch_size}",
            file=sys.stderr,
        )
        return 2

    def batches():
        if args.input == "-":
            rows: list[list[float]] = []
            for line in sys.stdin:
                line = line.strip()
                if not line:
                    continue
                rows.append(
                    [float(field) for field in line.replace(",", " ").split()]
                )
                if len(rows) >= args.batch_size:
                    yield np.asarray(rows, dtype=np.float64)
                    rows = []
            if rows:
                yield np.asarray(rows, dtype=np.float64)
        else:
            points = load_points(args.input)
            for start in range(0, points.shape[0], args.batch_size):
                yield points[start : start + args.batch_size]

    sent = swaps = 0
    with OutlierClient(host, int(port_text)) as client:
        for batch in batches():
            status = client.ingest(args.stream_name, batch)
            sent += int(status.get("accepted", 0))
            if status.get("swapped"):
                swaps += 1
                print(
                    f"swap -> version {status.get('version')} "
                    f"({status.get('window_points')} window points)",
                    file=sys.stderr,
                )
        print(
            f"ingested {sent} points into {args.stream_name!r} "
            f"({swaps} hot-swaps)",
            file=sys.stderr,
        )
        if args.status:
            print(
                json.dumps(
                    client.swap_status(), indent=2, sort_keys=True
                )
            )
    return 0


def _run_workers(args: argparse.Namespace) -> int:
    from repro.sparklite.netexec import run_worker

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --connect needs HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    port = int(port_text)
    if args.n < 1:
        print(f"error: --n must be >= 1, got {args.n}", file=sys.stderr)
        return 2
    if args.n == 1:
        run_worker(host, port, args.name)
        return 0
    import subprocess

    prefix = args.name or "worker"
    children = [
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "workers",
                "--connect",
                args.connect,
                "--name",
                f"{prefix}-{index}",
            ]
        )
        for index in range(args.n)
    ]
    return max(child.wait() for child in children)


def _run_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.top import fetch_telemetry, render_dashboard

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(
            f"error: --connect needs HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    port = int(port_text)
    previous = None
    try:
        while True:
            snapshot = fetch_telemetry(host, port)
            dashboard = render_dashboard(
                snapshot,
                previous=previous,
                interval=None if previous is None else args.interval,
            )
            if args.once:
                print(dashboard)
                return 0
            # Clear screen + home, like top(1).
            print(f"\x1b[2J\x1b[H{dashboard}", flush=True)
            previous = snapshot
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "detect": _run_detect,
        "estimate-eps": _run_estimate,
        "generate": _run_generate,
        "compare": _run_compare,
        "fit": _run_fit,
        "serve": _run_serve,
        "query": _run_query,
        "stream": _run_stream,
        "workers": _run_workers,
        "top": _run_top,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
