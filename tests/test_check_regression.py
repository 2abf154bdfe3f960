"""Record pairing of the benchmark regression gate."""

from __future__ import annotations

import importlib.util
import json
import pathlib

from repro import obs

_GATE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "check_regression", _GATE / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _record(marker: int) -> dict:
    """A fit record; every marker gives the same run signature."""
    recorder = obs.RunRecorder(
        engine="vectorized",
        params={"eps": 1.0, "min_pts": 5},
        context={"engine": "vectorized", "kernel": "c"},
    )
    recorder.metrics.merge(
        {"distance_computations": marker}, namespace="engine"
    )
    return recorder.finish(n_points=100, n_dims=2).to_dict()


def _write(directory: pathlib.Path, benches: dict[str, list[dict]]) -> None:
    directory.mkdir()
    for bench, records in benches.items():
        payload = {"bench": bench, "run_records": records}
        (directory / f"BENCH_{bench}.json").write_text(json.dumps(payload))


def _markers(pairs):
    return [
        (base.counters["engine.distance_computations"],
         cand.counters["engine.distance_computations"])
        for base, cand in pairs
    ]


def test_records_pair_within_their_bench(tmp_path):
    # Two benches fit the same input.  When the first bench drops its
    # fit, the second bench's fit must not be diffed against it.
    _write(tmp_path / "base", {"a": [_record(1)], "b": [_record(2)]})
    _write(tmp_path / "cand", {"a": [], "b": [_record(3)]})
    pairs, unmatched = check_regression.pair_records(
        check_regression.load_records(tmp_path / "base"),
        check_regression.load_records(tmp_path / "cand"),
    )
    assert _markers(pairs) == [(2, 3)]
    assert unmatched == 1


def test_jsonl_records_pair_by_signature_alone(tmp_path):
    for name, markers in (("base", (1, 2)), ("cand", (3, 4))):
        lines = [json.dumps(_record(m)) for m in markers]
        (tmp_path / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
    pairs, unmatched = check_regression.pair_records(
        check_regression.load_records(tmp_path / "base.jsonl"),
        check_regression.load_records(tmp_path / "cand.jsonl"),
    )
    assert _markers(pairs) == [(1, 3), (2, 4)]
    assert unmatched == 0
