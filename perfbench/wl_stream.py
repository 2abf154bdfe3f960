"""``stream-churn``: a ``repro serve --live`` process under window churn.

The server keeps a 20,000-point count window and hot-swaps a fresh
snapshot every 200 ingested points.  Set-up runs from spawning the
server to the first probe answered after one 20,000-point ingest fills
the window.  One step sends 200 arrivals, waits for the hot swap, then
sends one 8-point probe; its latency runs from sending the ingest until
the probe's labels are decoded.  At sampled steps, outside timing, the
probe's labels are compared with ``classify`` against a batch
``DBSCOUT.fit`` of the same window; on the default seed the batch fit
of the filled window is pinned by a committed digest.

Traced, an in-process ``LiveDetector`` follows the same arrivals, and
each step times ingest, ``result()``, ``snapshot()``, the service swap
and the first classify on the fresh model; a second classify of the
same probe shows what the first one paid for the new model.  Wire steps
on the server alternate between bare and inside a span.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import gen
from common import Run
from procs import Server
from spans import span_ms

EPS, MIN_PTS = 100.0, 10
WINDOW, REFRESH = 20_000, 200
NAME = "live"
SERVER_ARGS = [
    "--live", NAME, "--live-eps", repr(EPS), "--live-min-pts", str(MIN_PTS),
    "--window", str(WINDOW), "--refresh-points", str(REFRESH),
]
SETUP_REPEATS = 3
MIN_STEPS = 10
#: Every CHECK_EVERY-th step is verified against a batch fit.
CHECK_EVERY = 5
#: Steps whose recomputed-cell counters are summed into the exact count.
COUNTED_STEPS = 10
SWAP_TIMEOUT_S = 60.0


def _batch_fit(stream: gen.ArrivalStream, step: int):
    """A batch fit of the window the server should hold after ``step``:
    its outlier mask, and the probe's labels classified against it."""
    from repro import DBSCOUT

    detector = DBSCOUT(eps=EPS, min_pts=MIN_PTS)
    mask = detector.fit(stream.window_after(step)).outlier_mask
    return mask, np.asarray(detector.classify(stream.probe(step))).astype(bool)


class WireStream:
    """One client connection driving the live server, step by step."""

    def __init__(self, run: Run, repeat: int) -> None:
        from repro.serve import OutlierClient

        self.server = Server(SERVER_ARGS, f"stream-churn-{repeat}")
        try:
            self.client = self.server.connect(OutlierClient)
        except BaseException:
            self.server.stop()
            raise
        self.version = 0

    def step(self, arrivals: np.ndarray, probe: np.ndarray) -> np.ndarray:
        """Ingest, wait until a newer model is installed, probe."""
        status = self.client.ingest(NAME, arrivals)
        if status.get("swapped"):
            self.version = int(status["version"])
        else:
            self._await_swap()
        return np.asarray(self.client.query(NAME, probe)).astype(bool)

    def _await_swap(self) -> None:
        deadline = time.monotonic() + SWAP_TIMEOUT_S
        while time.monotonic() < deadline:
            versions = self.client.swap_status().get("versions", {})
            if versions.get(NAME, 0) > self.version:
                self.version = int(versions[NAME])
                return
            time.sleep(0.001)
        raise TimeoutError("no hot swap after ingest")

    def close(self, run: Run, keep_rss: bool) -> None:
        try:
            facts = self.server.facts()
            run.processes.append({"role": "server", **facts})
            if keep_rss:
                run.peak_rss_mb = facts["peak_rss_mb"]
        finally:
            self.client.close()
            self.server.stop()


def _start(run: Run, stream, repeat: int, expected) -> WireStream:
    started = time.perf_counter()
    wire = WireStream(run, repeat)
    try:
        labels = wire.step(stream.fill(), stream.probe(-1))
    except BaseException:
        wire.close(run, keep_rss=False)
        raise
    run.setup_s.append(time.perf_counter() - started)
    run.ledger.check("first probe", labels, expected)
    return wire


def run_workload(run: Run) -> None:
    stream = gen.ArrivalStream(run.seed, WINDOW, REFRESH)
    window_mask, fill_expected = _batch_fit(stream, -1)
    run.pin(window_mask)
    if run.trace:
        _traced(run, stream, fill_expected)
        return
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        wire = _start(run, stream, repeat, fill_expected)
        try:
            if last:
                _steps(run, stream, wire)
        finally:
            wire.close(run, keep_rss=last)


def _reference(stream, number: int):
    """Batch-fit probe labels at sampled steps, ``None`` elsewhere."""
    return _batch_fit(stream, number)[1] if number % CHECK_EVERY == 0 else None


def _steps(run: Run, stream, wire: WireStream) -> None:
    for number in run.until_deadline(MIN_STEPS):
        arrivals, probe = stream.step(number), stream.probe(number)
        started = time.perf_counter()
        try:
            labels = wire.step(arrivals, probe)
        except Exception as exc:  # noqa: BLE001 - the window is now unknown
            run.ledger.fail(f"step raised {type(exc).__name__}: {exc}")
            return
        run.latencies_s.append(time.perf_counter() - started)
        run.ledger.check("probe after swap", labels, _reference(stream, number))


def _recomputed(spans, telemetry: dict) -> int | None:
    parts = [
        spans.counter(telemetry, f"incremental.{kind}_cells_recomputed")
        for kind in ("core", "outlier")
    ]
    return None if None in parts else sum(parts)


def _traced(run: Run, stream, fill_expected) -> None:
    from repro.serve import OutlierService
    from repro.stream import LiveDetector

    spans = run.spans
    live = LiveDetector(eps=EPS, min_pts=MIN_PTS, window=WINDOW)
    service = OutlierService()
    with spans.span("live.fill", op=-1):
        live.ingest(stream.fill())
        live.result()
    service.swap(NAME, live.snapshot().model)
    counted_from = _recomputed(spans, live.telemetry())

    wire = _start(run, stream, 0, fill_expected)
    bare_ms, step_ms = [], []
    try:
        for number in run.until_deadline(MIN_STEPS):
            arrivals, probe = stream.step(number), stream.probe(number)
            with spans.span("step", op=number) as record:
                with spans.span("live.ingest", op=number):
                    live.ingest(arrivals)
                with spans.span("incremental.detect", op=number):
                    live.result()
                with spans.span("snapshot.export", op=number):
                    model = live.snapshot().model
                with spans.span("swap", op=number):
                    service.swap(NAME, model)
                with spans.span("classify.first_after_swap", op=number):
                    labels = np.asarray(model.classify(probe)).astype(bool)
            step_ms.append(span_ms(record))
            with spans.span("classify", op=number):
                model.classify(probe)
            expected = _reference(stream, number)
            run.ledger.check("in-process probe", labels, expected)
            if number + 1 == COUNTED_STEPS and counted_from is not None:
                counted_to = _recomputed(spans, live.telemetry())
                if counted_to is not None:
                    run.record_counters(
                        {"incremental.cells_recomputed": counted_to - counted_from}
                    )

            if number % 2:
                with spans.span("wire.step", op=number):
                    labels = wire.step(arrivals, probe)
            else:
                started = time.perf_counter()
                labels = wire.step(arrivals, probe)
                bare_ms.append((time.perf_counter() - started) * 1e3)
            run.ledger.check("probe after swap", labels, expected)
    finally:
        service.close()
        wire.close(run, keep_rss=True)

    wire_ms = bare_ms + spans.durations_ms("wire.step")
    counts = run.counters.get("values", {})
    run.layers.update({
        "live.fill_ms": spans.median_ms("live.fill"),
        "live.ingest_ms": spans.median_ms("live.ingest"),
        "incremental.detect_ms": spans.median_ms("incremental.detect"),
        "incremental.cells_recomputed":
            counts.get("incremental.cells_recomputed", 0),
        "snapshot.export_ms": spans.median_ms("snapshot.export"),
        "swap.ms": spans.median_ms("swap"),
        "classify.first_after_swap_ms":
            spans.median_ms("classify.first_after_swap"),
        "classify.ms": spans.median_ms("classify"),
        "wire.overhead_ms":
            statistics.median(wire_ms) - statistics.median(step_ms),
        "trace.overhead_pct": 100.0 * (
            spans.median_ms("wire.step") / statistics.median(bare_ms) - 1.0
        ),
    })
