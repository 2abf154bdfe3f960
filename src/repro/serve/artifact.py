"""Persistable detector artifacts: versioned save/load of fitted models.

A :class:`DetectorArtifact` is the on-disk form of a fitted detector's
:class:`~repro.core.classify.CoreModel`: a single ``.npz`` file holding
the model arrays plus a schema-checked JSON header (stored as a UTF-8
byte array inside the archive, so the artifact stays one file).  A
detector fitted once on millions of points loads back in milliseconds —
the NPZ payload is the core points, typically a small fraction of the
training data — and classifies unseen points exactly, bit-identical to
the original fit on its training set.

Format (schema version 1):

* ``header`` — ``uint8`` bytes of a JSON object with ``magic``,
  ``schema_version``, the fit parameters (``eps``, ``min_pts``,
  ``n_dims``, ``n_train``, ``engine``), array shape manifests,
  ``created_at``, library ``versions``, and free-form ``metadata``;
* ``core_points`` — ``(k, d)`` float64, grouped by cell;
* ``core_cells`` — ``(m, d)`` int64 unique core-cell coordinates;
* ``core_starts`` — ``(m + 1,)`` int64 CSR offsets.

Every load cross-checks the header manifest against the actual arrays
and raises :class:`~repro.exceptions.ArtifactError` on any mismatch, so
a truncated or tampered file fails loudly instead of mis-classifying.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.classify import CoreModel
from repro.exceptions import ArtifactError
from repro.obs import to_builtin
from repro.obs.record import library_versions
from repro.obs.trace import span

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ARTIFACT_MAGIC",
    "DetectorArtifact",
    "fit_artifact",
    "load_artifact",
    "save_artifact",
]

#: Bump when the artifact layout changes incompatibly.
ARTIFACT_SCHEMA_VERSION = 1
ARTIFACT_MAGIC = "repro.dbscout-artifact"

_ARRAY_SPECS: dict[str, tuple[str, int]] = {
    # name -> (dtype, ndim)
    "core_points": ("float64", 2),
    "core_cells": ("int64", 2),
    "core_starts": ("int64", 1),
}


@dataclass(frozen=True)
class DetectorArtifact:
    """A servable fitted detector: model arrays plus header facts.

    Attributes:
        model: The fitted :class:`~repro.core.classify.CoreModel`.
        name: Detector name used by the serving registry (defaults to
            the file stem on load when the header carries none).
        created_at: Unix timestamp the artifact was created.
        versions: Library versions recorded at save time.
        metadata: Free-form facts carried in the header.
    """

    model: CoreModel
    name: str = "detector"
    created_at: float = field(default_factory=time.time)
    versions: dict[str, str] = field(default_factory=library_versions)
    metadata: dict[str, Any] = field(default_factory=dict)

    # -- construction --------------------------------------------------

    @classmethod
    def from_model(
        cls,
        model: CoreModel,
        name: str = "detector",
        **metadata: Any,
    ) -> "DetectorArtifact":
        """Wrap a fitted model for persistence under ``name``.

        The model's own metadata is carried into the header so it
        round-trips through save/load; explicit ``**metadata`` keys
        take precedence.
        """
        return cls(
            model=model, name=name, metadata={**model.metadata, **metadata}
        )

    # -- header --------------------------------------------------------

    def header(self) -> dict[str, Any]:
        """The JSON header dict that :meth:`save` embeds."""
        model = self.model
        return {
            "magic": ARTIFACT_MAGIC,
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "name": self.name,
            "eps": float(model.eps),
            "min_pts": int(model.min_pts),
            "n_dims": int(model.n_dims),
            "n_train": int(model.n_train),
            "engine": model.engine,
            "n_core_points": model.n_core_points,
            "n_core_cells": model.n_core_cells,
            "arrays": {
                key: {
                    "shape": list(getattr(model, key).shape),
                    "dtype": str(getattr(model, key).dtype),
                }
                for key in _ARRAY_SPECS
            },
            "created_at": float(self.created_at),
            "versions": dict(self.versions),
            "metadata": to_builtin(dict(self.metadata)),
        }

    # -- save / load ---------------------------------------------------

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the artifact as one uncompressed ``.npz`` file.

        Uncompressed on purpose: the arrays are already dense numeric
        data and ``np.load`` of an uncompressed archive is a straight
        buffer read, keeping artifact loads in the milliseconds.
        """
        path = pathlib.Path(path)
        header_bytes = np.frombuffer(
            json.dumps(self.header(), sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        with span("serve.artifact.save", path=str(path)):
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                np.savez(
                    path,
                    header=header_bytes,
                    core_points=self.model.core_points,
                    core_cells=self.model.core_cells,
                    core_starts=self.model.core_starts,
                )
            except OSError as exc:
                raise ArtifactError(
                    f"could not write artifact to {path}: {exc}"
                ) from exc
        # np.savez appends .npz when missing; report the real path.
        return path if path.suffix == ".npz" else path.with_name(
            path.name + ".npz"
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "DetectorArtifact":
        """Load and fully validate an artifact written by :meth:`save`.

        Raises:
            ArtifactError: If the file is missing, is not an artifact,
                has an unsupported schema version, its arrays do not
                match the header manifest, or it holds a non-exact
                (approximate or subsampled) model.
        """
        path = pathlib.Path(path)
        with span("serve.artifact.load", path=str(path)):
            try:
                with np.load(path) as archive:
                    payload = {key: archive[key] for key in archive.files}
            except FileNotFoundError as exc:
                raise ArtifactError(
                    f"artifact file does not exist: {path}"
                ) from exc
            except (OSError, ValueError, KeyError) as exc:
                raise ArtifactError(
                    f"could not read {path} as an artifact archive: {exc}"
                ) from exc
            header = cls._validate(payload, path)
            model = CoreModel(
                eps=header["eps"],
                min_pts=header["min_pts"],
                n_dims=header["n_dims"],
                core_points=payload["core_points"],
                core_cells=payload["core_cells"],
                core_starts=payload["core_starts"],
                n_train=header["n_train"],
                engine=header["engine"],
                metadata=dict(header.get("metadata", {})),
            )
        return cls(
            model=model,
            name=header.get("name") or path.stem,
            created_at=header.get("created_at", 0.0),
            versions=dict(header.get("versions", {})),
            metadata=dict(header.get("metadata", {})),
        )

    @staticmethod
    def _validate(
        payload: dict[str, np.ndarray], path: pathlib.Path
    ) -> dict[str, Any]:
        """Parse the header and cross-check it against the arrays."""
        if "header" not in payload:
            raise ArtifactError(f"{path} has no header entry")
        try:
            header = json.loads(bytes(payload["header"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactError(
                f"{path} has an unreadable JSON header: {exc}"
            ) from exc
        if header.get("magic") != ARTIFACT_MAGIC:
            raise ArtifactError(
                f"{path} is not a DBSCOUT detector artifact "
                f"(magic={header.get('magic')!r})"
            )
        version = header.get("schema_version")
        if version != ARTIFACT_SCHEMA_VERSION:
            raise ArtifactError(
                f"{path} has artifact schema version {version!r}; "
                f"this library reads version {ARTIFACT_SCHEMA_VERSION}"
            )
        required = ("eps", "min_pts", "n_dims", "n_train", "engine")
        missing = [key for key in required if key not in header]
        if missing:
            raise ArtifactError(f"{path} header is missing {missing}")
        manifest = header.get("arrays", {})
        for key, (dtype, ndim) in _ARRAY_SPECS.items():
            if key not in payload:
                raise ArtifactError(f"{path} is missing array {key!r}")
            array = payload[key]
            if array.ndim != ndim or str(array.dtype) != dtype:
                raise ArtifactError(
                    f"{path} array {key!r} has dtype={array.dtype} "
                    f"ndim={array.ndim}, expected {dtype}/{ndim}-D"
                )
            declared = manifest.get(key, {}).get("shape")
            if declared is not None and list(array.shape) != declared:
                raise ArtifactError(
                    f"{path} array {key!r} has shape {list(array.shape)} "
                    f"but the header declares {declared} — truncated or "
                    "tampered artifact"
                )
        metadata = header.get("metadata")
        if isinstance(metadata, dict):
            # Models from the removed approximate tier hold a subset of
            # the core points: classifying against one would not give
            # exact labels, so they fail at load, not at serve time.
            quality = metadata.get("quality", "exact")
            if quality != "exact":
                raise ArtifactError(
                    f"{path} was saved by a fit with quality {quality!r}; "
                    "the quality option was removed and only exact models "
                    "load"
                )
            if "serving_sample_fraction" in metadata:
                raise ArtifactError(
                    f"{path} holds a core model subsampled to "
                    "serving_sample_fraction="
                    f"{metadata['serving_sample_fraction']!r}; "
                    "CoreModel.subsample was removed and only exact "
                    "models load"
                )
        return header

    # -- views ---------------------------------------------------------

    def classify(self, points: np.ndarray) -> np.ndarray:
        """Labels (1 outlier, 0 inlier) via the wrapped model."""
        return self.model.classify(points)

    def __repr__(self) -> str:
        return (
            f"DetectorArtifact(name={self.name!r}, eps={self.model.eps}, "
            f"min_pts={self.model.min_pts}, "
            f"n_core_points={self.model.n_core_points})"
        )


def fit_artifact(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    name: str = "detector",
    engine: str = "vectorized",
    **engine_options: Any,
) -> DetectorArtifact:
    """Fit DBSCOUT on ``points`` and wrap the model as an artifact."""
    from repro.core.dbscout import DBSCOUT

    detector = DBSCOUT(eps, min_pts, engine=engine, **engine_options)
    detector.fit(points)
    return DetectorArtifact.from_model(detector.core_model_, name=name)


def save_artifact(
    model: CoreModel, path: str | pathlib.Path, name: str = "detector"
) -> pathlib.Path:
    """Persist a fitted model; returns the path actually written."""
    return DetectorArtifact.from_model(model, name=name).save(path)


def load_artifact(path: str | pathlib.Path) -> DetectorArtifact:
    """Load an artifact; alias for :meth:`DetectorArtifact.load`."""
    return DetectorArtifact.load(path)
