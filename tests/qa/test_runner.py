"""Differential runner: catches injected bugs, honors error semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import InMemorySink, recording
from repro.qa import AdversarialDataset, DifferentialRunner, generate_dataset
from repro.qa.runner import VARIANT_NAMES, _Outcome


def _dataset(points, eps=1.0, min_pts=2, kind="manual", seed=-1):
    return AdversarialDataset(
        kind=kind,
        seed=seed,
        points=np.asarray(points, dtype=np.float64),
        eps=eps,
        min_pts=min_pts,
    )


def test_all_variants_agree_on_simple_data():
    runner = DifferentialRunner(emit_records=False)
    result = runner.run_case(
        _dataset([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
    )
    assert result.ok, [str(d) for d in result.divergences]


def test_unknown_variant_rejected():
    with pytest.raises(KeyError):
        DifferentialRunner(variants=("no_such_engine",))


def test_incremental_live_variant_is_opt_in_and_exact():
    from repro.qa.runner import ALL_VARIANT_NAMES

    assert "incremental_live" not in VARIANT_NAMES
    assert "incremental_live" in ALL_VARIANT_NAMES
    runner = DifferentialRunner(
        variants=("incremental_live",), emit_records=False
    )
    result = runner.run_case(
        _dataset([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
    )
    assert result.ok, [str(d) for d in result.divergences]


def test_injected_label_bug_is_detected():
    runner = DifferentialRunner(
        variants=("vectorized_pruned",), emit_records=False
    )

    def buggy(points, eps, min_pts):
        n = points.shape[0]
        return _Outcome(
            core=np.zeros(n, dtype=bool),  # claims nobody is core
            outlier=np.ones(n, dtype=bool),
        )

    runner.variants["buggy"] = buggy
    result = runner.run_case(
        _dataset([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]])
    )
    divergent = {d.variant for d in result.divergences}
    assert divergent == {"buggy"}
    fields = {d.field for d in result.divergences}
    assert fields == {"core_mask", "outlier_mask"}


def test_count_preserving_label_swap_is_detected():
    # Same outlier COUNT, different points — the reason the runner
    # diffs full vectors rather than counts.
    runner = DifferentialRunner(variants=(), emit_records=False)

    def swapped(points, eps, min_pts):
        from repro.core.reference import brute_force_detect

        reference = brute_force_detect(points, eps, min_pts)
        outlier = reference.outlier_mask.copy()
        flipped = np.flatnonzero(outlier)[:1]
        keepers = np.flatnonzero(~outlier)[:1]
        outlier[flipped] = False
        outlier[keepers] = True
        return _Outcome(
            core=reference.core_mask.copy(), outlier=outlier
        )

    runner.variants["swapped"] = swapped
    result = runner.run_case(
        _dataset([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
    )
    assert {d.field for d in result.divergences} == {"outlier_mask"}


def test_engine_error_when_reference_succeeds_is_divergence():
    from repro.exceptions import EngineError

    runner = DifferentialRunner(variants=(), emit_records=False)

    def exploding(points, eps, min_pts):
        raise EngineError("boom")

    runner.variants["exploding"] = exploding
    result = runner.run_case(_dataset([[0.0], [0.1], [0.2]]))
    assert len(result.divergences) == 1
    assert result.divergences[0].field == "error"


def test_uniform_rejection_is_not_a_divergence():
    # Out-of-domain coordinates: reference and every engine raise
    # DataValidationError; the runner treats that as agreement.
    runner = DifferentialRunner(emit_records=False)
    result = runner.run_case(
        _dataset([[9e18, 0.0], [-9e18, 0.0]], eps=0.5)
    )
    assert result.ok, [str(d) for d in result.divergences]


def test_variant_matrix_covers_every_engine_family():
    families = {name.split("_")[0] for name in VARIANT_NAMES}
    assert {
        "vectorized",
        "distributed",
        "incremental",
        "classify",
    } <= families


def test_run_seed_emits_reproducible_record():
    sink = InMemorySink()
    with recording(sink):
        runner = DifferentialRunner(
            variants=("vectorized_pruned",), emit_records=True
        )
        result = runner.run_seed(7)
    assert result.record is not None
    diff_records = [
        r for r in sink.records if r.engine == "qa.diff"
    ]
    assert len(diff_records) == 1
    context = diff_records[0].context
    assert context["seed"] == 7
    assert context["kind"] == generate_dataset(7).kind
    assert context["n_divergences"] == 0


def test_budget_stops_early():
    runner = DifferentialRunner(
        variants=("vectorized_pruned",), emit_records=False
    )
    results = runner.run_seeds(range(10_000), budget_s=0.5)
    assert 0 < len(results) < 10_000
