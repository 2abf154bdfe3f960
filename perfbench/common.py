"""State shared by the workloads of one benchmark run."""

from __future__ import annotations

import dataclasses
import time

from checks import Ledger, digest
from spans import SpanRecorder


@dataclasses.dataclass
class Run:
    """One workload run: its arguments and everything it measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    ledger: Ledger
    spans: SpanRecorder = dataclasses.field(default_factory=SpanRecorder)
    #: Provenance of every process that ran the program.
    processes: list[dict] = dataclasses.field(default_factory=list)
    #: Label digests of the reference outputs.
    digests: dict = dataclasses.field(default_factory=dict)
    #: Exact program counters, and whether they repeated within the run.
    counters: dict = dataclasses.field(default_factory=dict)
    setup_s: list[float] = dataclasses.field(default_factory=list)
    latencies_s: list[float] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: Per-layer metric values (traced runs only).
    layers: dict[str, float] = dataclasses.field(default_factory=dict)

    def until_deadline(self, min_ops: int):
        """Operation numbers until ``seconds`` have passed and at least
        ``min_ops`` operations were started."""
        self.ledger.arm()
        deadline = time.perf_counter() + self.seconds
        number = 0
        while number < min_ops or time.perf_counter() < deadline:
            yield number
            number += 1

    def pin(self, labels) -> None:
        """Record the digest of the workload's reference labels and, on
        the default seed, check it against the committed one."""
        self.digests[self.workload] = digest(labels)
        self.ledger.check_pinned(
            self.workload, self.seed, self.digests[self.workload]
        )

    def record_counters(self, counters: dict) -> None:
        """Keep the first set of exact counters; note if a later
        operation on the same input reports different ones."""
        if not self.counters:
            self.counters = {"values": dict(counters), "repeat": True}
        elif counters != self.counters["values"]:
            self.counters["repeat"] = False
