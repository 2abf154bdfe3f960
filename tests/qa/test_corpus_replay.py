"""Tier-1 corpus replay: every committed witness must keep passing.

This is the permanent regression net for every divergence the fuzzer
ever found (and for the degenerate geometries the engines must agree
on by definition).  Each witness runs through the full differential
engine matrix against the brute-force oracle on every pytest
invocation — fast, seeded, no fuzz loop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.qa import (
    DifferentialRunner,
    Witness,
    iter_corpus,
    load_witness,
    save_witness,
)

CORPUS_DIR = Path(__file__).parent / "corpus"
WITNESSES = sorted(iter_corpus(CORPUS_DIR), key=lambda w: w.name)


def test_corpus_is_not_empty():
    assert len(WITNESSES) >= 5


@pytest.mark.parametrize(
    "witness", WITNESSES, ids=[w.name for w in WITNESSES]
)
def test_witness_replays_clean(witness: Witness):
    runner = DifferentialRunner(emit_records=False)
    result = runner.run_case(witness.dataset())
    assert result.ok, "\n".join(str(d) for d in result.divergences)


def test_witness_roundtrip_preserves_float_bits(tmp_path):
    # Sub-ulp geometry must survive save/load exactly.
    points = np.array([[5e-17, np.nextafter(0.7, 0.0)], [0.0, 0.7]])
    path = save_witness(
        tmp_path, "bits", points, eps=0.7, min_pts=2, note="roundtrip"
    )
    loaded = load_witness(path)
    assert np.array_equal(
        loaded.points.view(np.uint64), points.view(np.uint64)
    )
    assert loaded.eps == 0.7
    assert loaded.min_pts == 2
    assert loaded.note == "roundtrip"


def test_known_bug_witnesses_are_present():
    names = {witness.name for witness in WITNESSES}
    assert {
        "exact_eps_across_boundary_ring",
        "int64_cell_overflow_rejected",
        "quotient_collapse_rejected",
        "same_cell_corner_ulp",
        "kernel_accumulation_order",
        "seed236_boundary_lattice_scores",
    } <= names
