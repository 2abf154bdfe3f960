"""``serve-query``: a ``repro serve`` process answering 8-point queries.

The server holds the artifact of the ``fit-geolife3d`` model.  One
client drives it closed-loop over one connection: it sends the next
query only once the previous labels are decoded.  Set-up runs from
spawning the server to the first answered query.

Traced, each query is answered four ways, in turn: a bare round trip,
a round trip inside a span, an in-process ``OutlierService.query`` and
a direct ``CoreModel.classify``.  Differences of medians give the
service and wire overheads.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import gen
from common import Run
from procs import WORK, Server

EPS, MIN_PTS = 100.0, 10
NAME = "geo"
QUERY_POOL = 1_000
#: Queries whose classify counters are summed into the exact counts.
COUNTED_QUERIES = 200
MIN_QUERIES = 200
SETUP_REPEATS = 5
ARTIFACT_LOADS = 5


def run_workload(run: Run) -> None:
    from repro import DBSCOUT
    from repro.serve import DetectorArtifact

    train = gen.geolife_like(run.seed)
    detector = DBSCOUT(eps=EPS, min_pts=MIN_PTS)
    detector.fit(train)
    artifact = WORK / f"serve-query-seed{run.seed}.npz"
    DetectorArtifact.from_model(detector.core_model_, name=NAME).save(artifact)

    queries = gen.serve_queries(run.seed, train, QUERY_POOL)
    expected = np.asarray(
        detector.classify(queries.reshape(-1, queries.shape[-1]))
    ).astype(bool).reshape(queries.shape[:2])
    run.pin(expected)
    del detector, train

    try:
        if run.trace:
            _traced(run, artifact, queries, expected)
            return
        for repeat in range(SETUP_REPEATS):
            last = repeat == SETUP_REPEATS - 1
            server, client = _start(run, artifact, repeat, queries[0],
                                    expected[0])
            try:
                if last:
                    _closed_loop(run, server, client, queries, expected)
            finally:
                _finish(run, server, client, keep_rss=last)
    finally:
        artifact.unlink()


def _start(run: Run, artifact, repeat: int, query, expected):
    """Spawn a server and time it up to the first answered query."""
    from repro.serve import OutlierClient

    started = time.perf_counter()
    server = Server([str(artifact)], f"serve-query-{repeat}")
    try:
        client = server.connect(OutlierClient)
        labels = client.query(NAME, query)
    except BaseException:
        server.stop()
        raise
    run.setup_s.append(time.perf_counter() - started)
    run.ledger.check("first query", np.asarray(labels).astype(bool), expected)
    return server, client


def _closed_loop(run: Run, server, client, queries, expected) -> None:
    for number in run.until_deadline(MIN_QUERIES):
        index = number % QUERY_POOL
        started = time.perf_counter()
        try:
            labels = client.query(NAME, queries[index])
        except Exception as exc:  # noqa: BLE001 - a failed request
            run.ledger.fail(f"query raised {type(exc).__name__}: {exc}")
            continue
        run.latencies_s.append(time.perf_counter() - started)
        run.ledger.check("query", np.asarray(labels).astype(bool),
                         expected[index])


def _finish(run: Run, server, client, keep_rss: bool) -> None:
    try:
        facts = server.facts()
        run.processes.append({"role": "server", **facts})
        if keep_rss:
            run.peak_rss_mb = facts["peak_rss_mb"]
    finally:
        client.close()
        server.stop()


def _traced(run: Run, artifact, queries, expected) -> None:
    from repro.serve import DetectorArtifact, OutlierService

    spans = run.spans
    for number in range(ARTIFACT_LOADS):
        with spans.span("artifact.load", op=number):
            loaded = DetectorArtifact.load(artifact)
    model = loaded.model
    counters: dict = {}
    try:
        for query in queries[:COUNTED_QUERIES]:
            model.classify(query, counters=counters)
    except TypeError:  # classify no longer takes counters=
        spans.note_missing("CoreModel.classify(counters=...)")
    run.record_counters({
        name: spans.counter(counters, name)
        for name in ("distance_computations", "cells_settled_core")
    })

    service = OutlierService()
    service.register(NAME, loaded)
    server, client = _start(run, artifact, 0, queries[0], expected[0])
    bare_ms = []
    try:
        for number in run.until_deadline(MIN_QUERIES):
            index = number % QUERY_POOL
            query = queries[index]
            started = time.perf_counter()
            labels = client.query(NAME, query)
            bare_ms.append((time.perf_counter() - started) * 1e3)
            run.ledger.check("query", np.asarray(labels).astype(bool),
                             expected[index])
            with spans.span("rtt", op=number):
                labels = client.query(NAME, query)
            run.ledger.check("traced query", np.asarray(labels).astype(bool),
                             expected[index])
            with spans.span("service.query", op=number):
                labels = service.query(NAME, query)
            run.ledger.check("in-process query",
                             np.asarray(labels).astype(bool), expected[index])
            with spans.span("classify", op=number):
                labels = model.classify(query)
            run.ledger.check("classify", np.asarray(labels).astype(bool),
                             expected[index])
    finally:
        service.close()
        _finish(run, server, client, keep_rss=True)

    counts = run.counters["values"]
    classify_ms = spans.median_ms("classify")
    service_ms = spans.median_ms("service.query")
    run.layers.update({
        "artifact.load_ms": spans.median_ms("artifact.load"),
        "classify.ms": classify_ms,
        "classify.kernel_pairs": counts["distance_computations"] or 0,
        "classify.settled_cells": counts["cells_settled_core"] or 0,
        "service.overhead_ms": service_ms - classify_ms,
        "wire.overhead_ms": statistics.median(bare_ms) - service_ms,
        "trace.overhead_pct": 100.0 * (
            spans.median_ms("rtt") / statistics.median(bare_ms) - 1.0
        ),
    })
