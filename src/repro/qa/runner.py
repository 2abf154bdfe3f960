"""The differential runner: every engine against the brute-force oracle.

For each dataset the runner executes the full engine matrix —
vectorized (pruned and unpruned NumPy, compiled C kernel, grid-tree
cell planner), distributed (all three join strategies), incremental
(split insert and insert+remove churn) — plus out-of-sample
classification (:meth:`repro.core.classify.CoreModel.classify` on the
training points) and the scored detector
(:func:`repro.core.scoring.detect_with_scores`), and diffs the *full*
core and outlier label vectors against
:func:`repro.core.reference.brute_force_detect`.  Outlier counts are
never compared alone: two engines can agree on the count while
disagreeing on which points are outliers.

Error semantics are part of the contract: when the reference rejects a
dataset (e.g. coordinates beyond the exact grid domain) every variant
must raise the same exception type — an engine that silently returns
labels for data the oracle refuses is a divergence.

Each case emits a :mod:`repro.obs` run record (engine ``qa.diff``)
carrying the generator seed and kind, so any discrepancy is
reproducible with ``generate_dataset(seed)`` alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.classify import CoreModel
from repro.core.distributed import DistributedEngine
from repro.core.incremental import IncrementalDBSCOUT
from repro.core.reference import brute_force_detect
from repro.core.scoring import detect_with_scores
from repro.core.vectorized import VectorizedEngine
from repro.exceptions import ReproError
from repro.obs import RunRecorder
from repro.qa.generators import AdversarialDataset, generate_dataset
from repro.stream import CountWindow, LiveDetector

__all__ = [
    "Divergence",
    "CaseResult",
    "DifferentialRunner",
    "VARIANT_NAMES",
    "ALL_VARIANT_NAMES",
]


@dataclass(frozen=True)
class Divergence:
    """One engine/oracle disagreement on one dataset."""

    seed: int
    kind: str
    variant: str
    field: str
    detail: str

    def __str__(self) -> str:
        return (
            f"seed={self.seed} kind={self.kind} variant={self.variant} "
            f"field={self.field}: {self.detail}"
        )


@dataclass
class CaseResult:
    """Outcome of one differential case."""

    dataset: AdversarialDataset
    divergences: list[Divergence] = field(default_factory=list)
    record: Any = None

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass
class _Outcome:
    """Label masks or the exception type a variant produced."""

    core: np.ndarray | None = None
    outlier: np.ndarray | None = None
    error: type | None = None


def _masks(result: Any, n: int) -> _Outcome:
    return _Outcome(
        core=np.asarray(result.core_mask, dtype=bool)[:n],
        outlier=np.asarray(result.outlier_mask, dtype=bool)[:n],
    )


def _run_vectorized(
    kernel: str, box_tests: bool | None = None, cell_planner: str = "stencil"
):
    def run(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
        engine = VectorizedEngine(kernel=kernel)
        engine._box_tests = box_tests
        engine._cell_planner = cell_planner
        result = engine.detect(points, eps, min_pts)
        return _masks(result, points.shape[0])

    return run


def _run_distributed(join_strategy: str):
    def run(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
        engine = DistributedEngine(
            num_partitions=2, join_strategy=join_strategy
        )
        return _masks(engine.detect(points, eps, min_pts), points.shape[0])

    return run


#: Lazily started loopback cluster shared by every ``distributed_net``
#: case in the process (spawning workers per case would dominate the
#: fuzz budget).  Reaped at interpreter exit.
_NET_CLUSTER = None


def _net_cluster():
    global _NET_CLUSTER
    if _NET_CLUSTER is None:
        import atexit

        from repro.sparklite.netexec import LoopbackCluster

        _NET_CLUSTER = LoopbackCluster(
            n_workers=2, default_parallelism=2, task_timeout=60.0
        )
        atexit.register(_NET_CLUSTER.close)
    return _NET_CLUSTER


def _run_distributed_net(
    points: np.ndarray, eps: float, min_pts: int
) -> _Outcome:
    """The multi-host executor: two real worker processes over TCP.

    Cell-partitioned on top, so this row exercises both PR surfaces —
    wire execution and spatial sharding — against the oracle at once.
    """
    engine = DistributedEngine(
        num_partitions=2,
        context=_net_cluster().context,
        partitioner="cells",
    )
    return _masks(engine.detect(points, eps, min_pts), points.shape[0])


def _run_incremental_split(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
    detector = IncrementalDBSCOUT(eps, min_pts)
    n = points.shape[0]
    if n > 1:
        detector.insert(points[: n // 2])
        detector.insert(points[n // 2 :])
    elif n:
        detector.insert(points)
    return _masks(detector.detect(), n)


def _run_incremental_churn(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
    """Insert everything plus decoys, then remove the decoys.

    Exercises the dirty-region recomputation: the surviving prefix must
    match a from-scratch fit exactly.
    """
    n = points.shape[0]
    if n == 0:
        return _run_incremental_split(points, eps, min_pts)
    detector = IncrementalDBSCOUT(eps, min_pts)
    detector.insert(points)
    decoys = points[: max(1, n // 2)] + 0.25 * eps
    detector.insert(decoys)
    detector.remove(range(n, n + decoys.shape[0]))
    return _masks(detector.detect(), n)


def _run_incremental_live(
    points: np.ndarray, eps: float, min_pts: int
) -> _Outcome:
    """Streamed churn through :class:`repro.stream.LiveDetector`.

    Decoys are ingested first, then the dataset in chunks; a count
    window sized to the dataset ages the decoys out, so the active
    window ends up holding exactly ``points`` in arrival order.  The
    window labels — the consistency contract live serving snapshots
    rely on — must match the brute-force oracle bit-for-bit.
    """
    n = points.shape[0]
    if n == 0:
        return _run_incremental_split(points, eps, min_pts)
    live = LiveDetector(eps, min_pts, window=CountWindow(n))
    decoys = points[: max(1, n // 2)] + 0.25 * eps
    live.ingest(decoys, timestamps=0.0)
    chunk = max(1, n // 3)
    for tick, start in enumerate(range(0, n, chunk), start=1):
        live.ingest(points[start : start + chunk], timestamps=float(tick))
    return _masks(live.result(), n)


def _run_scores(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
    """The masks :func:`repro.core.scoring.detect_with_scores` returns."""
    return _masks(detect_with_scores(points, eps, min_pts), points.shape[0])


def _run_classify(points: np.ndarray, eps: float, min_pts: int) -> _Outcome:
    """CoreModel.classify over the training points themselves.

    The model is built from the *reference* fit, so this isolates the
    classify path: its labels must reproduce the oracle's outlier mask
    bit-for-bit on the training data.
    """
    reference = brute_force_detect(points, eps, min_pts)
    model = CoreModel.from_fit(points, reference, eps, min_pts)
    labels = model.classify(points)
    return _Outcome(
        core=np.asarray(reference.core_mask, dtype=bool),
        outlier=np.asarray(labels, dtype=bool),
    )


#: The engine matrix, name -> runner(points, eps, min_pts) -> _Outcome.
#: The vectorized rows pin kernel/planner so each performance layer is
#: exercised in isolation: the two legacy rows run the NumPy kernel
#: with the stencil planner and pin every round's box tests on
#: (``pruned``) or off (``unpruned``), ``vectorized_ckernel`` swaps in the
#: compiled kernel (NumPy fallback without a compiler — still a valid
#: differential run), and ``vectorized_tree`` swaps in the grid-tree
#: cell planner.  ``scores`` diffs the masks of
#: :func:`repro.core.scoring.detect_with_scores`.
_VARIANTS: dict[str, Callable[[np.ndarray, float, int], _Outcome]] = {
    "vectorized_pruned": _run_vectorized("numpy", box_tests=True),
    "vectorized_unpruned": _run_vectorized("numpy", box_tests=False),
    "vectorized_ckernel": _run_vectorized("c"),
    "vectorized_tree": _run_vectorized("numpy", cell_planner="tree"),
    "distributed_group": _run_distributed("group"),
    "distributed_plain": _run_distributed("plain"),
    "distributed_broadcast": _run_distributed("broadcast"),
    "incremental_split": _run_incremental_split,
    "incremental_churn": _run_incremental_churn,
    "classify": _run_classify,
    "scores": _run_scores,
}

#: Default matrix: every in-process variant.
VARIANT_NAMES: tuple[str, ...] = tuple(_VARIANTS)

#: Opt-in variants, selectable by name but not part of the default
#: matrix: ``distributed_net`` spawns worker subprocesses, which the
#: tier-1 suite should not pay for on every run;
#: ``incremental_live`` replays insert+evict churn through the
#: streaming window layer (run by the tier-2 streaming CI job).
_OPT_IN_VARIANTS: dict[str, Callable[[np.ndarray, float, int], _Outcome]] = {
    "distributed_net": _run_distributed_net,
    "incremental_live": _run_incremental_live,
}

ALL_VARIANT_NAMES: tuple[str, ...] = VARIANT_NAMES + tuple(_OPT_IN_VARIANTS)


def _mask_diff(expected: np.ndarray, got: np.ndarray) -> str:
    if expected.shape != got.shape:
        return f"shape {got.shape} != expected {expected.shape}"
    bad = np.flatnonzero(expected != got)
    return (
        f"{bad.size} label(s) differ at indices {bad[:10].tolist()}"
        + ("..." if bad.size > 10 else "")
    )


class DifferentialRunner:
    """Runs the engine matrix differentially against the oracle.

    Args:
        variants: Optional subset of :data:`VARIANT_NAMES` to run.
        emit_records: Emit a ``qa.diff`` run record per case (on by
            default; records reach installed :mod:`repro.obs` sinks).
    """

    def __init__(
        self,
        variants: tuple[str, ...] | None = None,
        emit_records: bool = True,
    ) -> None:
        known = {**_VARIANTS, **_OPT_IN_VARIANTS}
        names = VARIANT_NAMES if variants is None else tuple(variants)
        unknown = set(names) - set(known)
        if unknown:
            raise KeyError(
                f"unknown variants {sorted(unknown)}; known: "
                f"{list(ALL_VARIANT_NAMES)}"
            )
        self.variants = {name: known[name] for name in names}
        self.emit_records = bool(emit_records)

    # ------------------------------------------------------------------

    def run_case(self, dataset: AdversarialDataset) -> CaseResult:
        """Run every variant on one dataset and diff against the oracle."""
        recorder = None
        if self.emit_records:
            recorder = RunRecorder(
                engine="qa.diff",
                params={"eps": dataset.eps, "min_pts": dataset.min_pts},
                context={"seed": dataset.seed, "kind": dataset.kind},
            )
        oracle = self._invoke(
            lambda: _masks(
                brute_force_detect(
                    dataset.points, dataset.eps, dataset.min_pts
                ),
                dataset.n_points,
            )
        )
        divergences: list[Divergence] = []
        for name, run in self.variants.items():
            outcome = self._invoke(
                lambda run=run: run(
                    dataset.points, dataset.eps, dataset.min_pts
                )
            )
            divergences.extend(self._diff(dataset, name, oracle, outcome))
        record = None
        if recorder is not None:
            recorder.add_context(
                variants=list(self.variants),
                n_divergences=len(divergences),
                divergent_variants=sorted(
                    {d.variant for d in divergences}
                ),
            )
            record = recorder.finish(
                dataset.n_points, n_dims=dataset.n_dims or None
            )
        return CaseResult(
            dataset=dataset, divergences=divergences, record=record
        )

    def run_seed(self, seed: int, kind: str | None = None) -> CaseResult:
        """Generate the dataset for ``seed`` and run it."""
        return self.run_case(generate_dataset(seed, kind=kind))

    def run_seeds(
        self,
        seeds,
        budget_s: float | None = None,
        on_case: Callable[[CaseResult], None] | None = None,
    ) -> list[CaseResult]:
        """Run a seed range, stopping early when the budget expires."""
        started = time.perf_counter()
        results: list[CaseResult] = []
        for seed in seeds:
            if (
                budget_s is not None
                and time.perf_counter() - started > budget_s
            ):
                break
            result = self.run_seed(int(seed))
            results.append(result)
            if on_case is not None:
                on_case(result)
        return results

    # ------------------------------------------------------------------

    @staticmethod
    def _invoke(thunk: Callable[[], _Outcome]) -> _Outcome:
        try:
            return thunk()
        except ReproError as exc:
            return _Outcome(error=type(exc))

    @staticmethod
    def _diff(
        dataset: AdversarialDataset,
        variant: str,
        oracle: _Outcome,
        outcome: _Outcome,
    ) -> list[Divergence]:
        def divergence(field_name: str, detail: str) -> Divergence:
            return Divergence(
                seed=dataset.seed,
                kind=dataset.kind,
                variant=variant,
                field=field_name,
                detail=detail,
            )

        if oracle.error is not None:
            if outcome.error is not oracle.error:
                got = (
                    "no error"
                    if outcome.error is None
                    else outcome.error.__name__
                )
                return [
                    divergence(
                        "error",
                        f"reference raised {oracle.error.__name__}, "
                        f"variant raised {got}",
                    )
                ]
            return []
        if outcome.error is not None:
            return [
                divergence(
                    "error",
                    f"variant raised {outcome.error.__name__} but the "
                    "reference succeeded",
                )
            ]
        found: list[Divergence] = []
        if not np.array_equal(oracle.core, outcome.core):
            found.append(
                divergence("core_mask", _mask_diff(oracle.core, outcome.core))
            )
        if not np.array_equal(oracle.outlier, outcome.outlier):
            found.append(
                divergence(
                    "outlier_mask",
                    _mask_diff(oracle.outlier, outcome.outlier),
                )
            )
        return found
