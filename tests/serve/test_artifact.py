"""Detector artifacts: save/load round trips and schema validation."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import DBSCOUT
from repro.exceptions import ArtifactError
from repro.serve import (
    ARTIFACT_MAGIC,
    ARTIFACT_SCHEMA_VERSION,
    DetectorArtifact,
    fit_artifact,
    load_artifact,
    save_artifact,
)


@pytest.fixture
def fitted(clustered_2d):
    detector = DBSCOUT(eps=0.8, min_pts=10)
    result = detector.fit(clustered_2d)
    return detector, result, clustered_2d


def test_save_load_classify_round_trip(fitted, tmp_path, rng):
    detector, result, points = fitted
    path = save_artifact(detector.core_model_, tmp_path / "m.npz")
    loaded = load_artifact(path)
    # training-set equality is exact, not approximate
    np.testing.assert_array_equal(loaded.classify(points), result.labels())
    # out-of-sample queries agree with the in-memory model too
    queries = rng.uniform(-12.0, 16.0, size=(200, 2))
    np.testing.assert_array_equal(
        loaded.classify(queries), detector.classify(queries)
    )


def test_round_trip_preserves_model_fields(fitted, tmp_path):
    detector, _, points = fitted
    artifact = DetectorArtifact.from_model(
        detector.core_model_, name="geo", source="unit-test"
    )
    path = artifact.save(tmp_path / "geo")  # .npz appended
    assert path.suffix == ".npz"
    loaded = DetectorArtifact.load(path)
    assert loaded.name == "geo"
    assert loaded.metadata["source"] == "unit-test"
    assert loaded.model.eps == detector.core_model_.eps
    assert loaded.model.min_pts == detector.core_model_.min_pts
    assert loaded.model.n_train == points.shape[0]
    np.testing.assert_array_equal(
        loaded.model.core_points, detector.core_model_.core_points
    )
    np.testing.assert_array_equal(
        loaded.model.core_cells, detector.core_model_.core_cells
    )
    np.testing.assert_array_equal(
        loaded.model.core_starts, detector.core_model_.core_starts
    )


def test_fit_artifact_convenience(clustered_2d, tmp_path):
    artifact = fit_artifact(clustered_2d, eps=0.8, min_pts=10, name="demo")
    assert artifact.name == "demo"
    path = artifact.save(tmp_path / "demo.npz")
    assert load_artifact(path).name == "demo"


def test_header_contents(fitted):
    detector, _, points = fitted
    header = DetectorArtifact.from_model(detector.core_model_).header()
    assert header["magic"] == ARTIFACT_MAGIC
    assert header["schema_version"] == ARTIFACT_SCHEMA_VERSION
    assert header["eps"] == 0.8
    assert header["min_pts"] == 10
    assert header["n_train"] == points.shape[0]
    assert set(header["arrays"]) == {
        "core_points",
        "core_cells",
        "core_starts",
    }
    json.dumps(header)  # header is JSON-safe


def test_load_missing_file_raises(tmp_path):
    with pytest.raises(ArtifactError, match="does not exist"):
        load_artifact(tmp_path / "nope.npz")


def test_load_non_artifact_npz_raises(tmp_path):
    path = tmp_path / "random.npz"
    np.savez(path, stuff=np.arange(4))
    with pytest.raises(ArtifactError, match="no header"):
        load_artifact(path)


def test_load_wrong_magic_raises(fitted, tmp_path):
    detector, _, _ = fitted
    path = _tampered_save(
        detector, tmp_path, lambda h: h.update(magic="something-else")
    )
    with pytest.raises(ArtifactError, match="not a DBSCOUT"):
        load_artifact(path)


def test_load_future_schema_version_raises(fitted, tmp_path):
    detector, _, _ = fitted
    path = _tampered_save(
        detector, tmp_path, lambda h: h.update(schema_version=99)
    )
    with pytest.raises(ArtifactError, match="schema version"):
        load_artifact(path)


def test_load_truncated_array_raises(fitted, tmp_path):
    detector, _, _ = fitted
    model = detector.core_model_
    artifact = DetectorArtifact.from_model(model)
    path = tmp_path / "cut.npz"
    # arrays shorter than the header manifest declares
    np.savez(
        path,
        header=np.frombuffer(
            json.dumps(artifact.header()).encode(), dtype=np.uint8
        ),
        core_points=model.core_points[:-1],
        core_cells=model.core_cells,
        core_starts=model.core_starts,
    )
    with pytest.raises(ArtifactError, match="truncated or tampered"):
        load_artifact(path)


def test_load_wrong_dtype_raises(fitted, tmp_path):
    detector, _, _ = fitted
    model = detector.core_model_
    artifact = DetectorArtifact.from_model(model)
    path = tmp_path / "dtype.npz"
    header = artifact.header()
    header["arrays"]["core_points"]["dtype"] = "float32"
    header["arrays"]["core_points"]["shape"] = list(
        model.core_points.shape
    )
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        core_points=model.core_points.astype(np.float32),
        core_cells=model.core_cells,
        core_starts=model.core_starts,
    )
    with pytest.raises(ArtifactError, match="dtype"):
        load_artifact(path)


#: Artifacts saved by the release that still had the approximate tier:
#: an exact fit, a fit with the balanced quality preset, and an exact model
#: subsampled to half its core points (``_fixture_points``, eps 0.5,
#: minPts 5).
FIXTURES = pathlib.Path(__file__).parent / "data"


def _fixture_points() -> np.ndarray:
    rng = np.random.default_rng(2021)
    return np.vstack(
        [
            rng.normal(0.0, 0.6, size=(150, 2)),
            rng.uniform(-5.0, 5.0, size=(30, 2)),
        ]
    )[rng.permutation(180)]


def test_saved_exact_artifact_loads_with_fit_labels():
    loaded = load_artifact(FIXTURES / "artifact_exact.npz")
    points = _fixture_points()
    result = DBSCOUT(0.5, 5).fit(points)
    assert loaded.metadata["quality"] == "exact"
    np.testing.assert_array_equal(loaded.classify(points), result.labels())


@pytest.mark.parametrize(
    ("name", "option"),
    [("balanced", "quality"), ("subsampled", "serving_sample_fraction")],
)
def test_saved_approximate_artifact_rejected(name, option):
    with pytest.raises(ArtifactError, match=option):
        load_artifact(FIXTURES / f"artifact_{name}.npz")


def _tampered_save(detector, tmp_path, mutate):
    """Save an artifact whose header was altered by ``mutate``."""
    model = detector.core_model_
    artifact = DetectorArtifact.from_model(model)
    header = artifact.header()
    mutate(header)
    path = tmp_path / "tampered.npz"
    np.savez(
        path,
        header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        core_points=model.core_points,
        core_cells=model.core_cells,
        core_starts=model.core_starts,
    )
    return path
