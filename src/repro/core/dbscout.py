"""Public DBSCOUT API.

:class:`DBSCOUT` is the estimator facade over the two engines:

* ``engine="vectorized"`` (default) — single-machine NumPy engine, the
  fast path for large datasets;
* ``engine="distributed"`` — the SparkLite transcription of the paper's
  Algorithms 1-5, parameterized by partition count and join strategy.

Both are exact and produce identical results; the engine parity is
enforced by the test suite.

Example:
    >>> import numpy as np
    >>> from repro import DBSCOUT
    >>> rng = np.random.default_rng(0)
    >>> cluster = rng.normal(0.0, 0.3, size=(200, 2))
    >>> lone = np.array([[9.0, 9.0]])
    >>> result = DBSCOUT(eps=0.5, min_pts=10).fit(np.vstack([cluster, lone]))
    >>> bool(result.outlier_mask[-1])
    True
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.classify import CoreModel
from repro.core.distributed import DistributedEngine
from repro.core.validation import validate_parameters
from repro.core.vectorized import VectorizedEngine
from repro.exceptions import NotFittedError, ParameterError
from repro.types import DetectionResult

__all__ = ["DBSCOUT", "detect_outliers"]

_ENGINES = ("vectorized", "distributed")


class DBSCOUT:
    """Density-based scalable outlier detector (the paper's algorithm).

    A point is an outlier iff it lies strictly farther than ``eps``
    from every core point, where a core point has at least ``min_pts``
    points (itself included) within distance ``eps`` (Definitions 2-3).

    Args:
        eps: Neighborhood radius (positive).
        min_pts: Density threshold (positive integer).
        engine: ``"vectorized"`` or ``"distributed"``.
        **engine_options: Extra keyword arguments per engine.  The
            vectorized engine accepts only ``kernel``
            (``"auto"``/``"numpy"``/``"c"`` distance-kernel tier);
            labels are bit-identical for every choice.  Whether a
            fit's rounds box-test their cell pairs, and which planner
            builds the cell adjacency, are not options: the engine
            decides both (see
            :class:`~repro.core.vectorized.VectorizedEngine`).  The
            distributed engine accepts ``num_partitions``,
            ``max_workers``, ``join_strategy``, ``context``,
            ``kernel``, ``executor`` (``"local"`` or
            ``"net"`` — drive registered remote workers over TCP), and
            ``partitioner`` (``"rows"`` or ``"cells"`` — spatially
            aware grid sharding); labels are bit-identical for every
            combination of these too.
    """

    def __init__(
        self,
        eps: float,
        min_pts: int,
        engine: str = "vectorized",
        **engine_options: Any,
    ) -> None:
        self.eps, self.min_pts = validate_parameters(eps, min_pts)
        if engine not in _ENGINES:
            raise ParameterError(
                f"engine must be one of {_ENGINES}, got {engine!r}"
            )
        if engine == "vectorized":
            kernel = engine_options.pop("kernel", "auto")
            if engine_options:
                raise ParameterError(
                    "the vectorized engine accepts only the kernel "
                    "option; got " + ", ".join(sorted(engine_options))
                )
            # normalize_kernel raises ParameterError for invalid values.
            self._engine: VectorizedEngine | DistributedEngine = (
                VectorizedEngine(kernel=kernel)
            )
        else:
            self._engine = DistributedEngine(**engine_options)
        self.engine_name = engine
        self._result: DetectionResult | None = None
        self._fit_points: np.ndarray | None = None
        self._core_model: CoreModel | None = None

    def fit(self, points: np.ndarray) -> DetectionResult:
        """Detect outliers in ``points`` and return the result.

        The result is also retained on the estimator (see
        :attr:`result_`) for sklearn-style access, along with the
        training points so :meth:`classify` can label unseen data.
        """
        self._result = self._engine.detect(points, self.eps, self.min_pts)
        self._fit_points = points
        self._core_model = None
        return self._result

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Fit and return labels: 1 for outliers, 0 for inliers."""
        return self.fit(points).labels()

    def classify(self, points: np.ndarray) -> np.ndarray:
        """Exact labels for unseen points without refitting.

        A point is an outlier iff it lies strictly farther than
        ``eps`` from every core point of the fitted model (Definition
        3); on the training data this reproduces the :meth:`fit`
        labels bit-identically.  See
        :class:`repro.core.classify.CoreModel`.
        """
        return self.core_model_.classify(
            points, kernel=getattr(self._engine, "kernel", "auto")
        )

    @property
    def result_(self) -> DetectionResult:
        """The result of the last :meth:`fit` call."""
        if self._result is None:
            raise NotFittedError("call fit() before accessing result_")
        return self._result

    @property
    def core_model_(self) -> CoreModel:
        """The servable :class:`CoreModel` of the last :meth:`fit` call.

        Built lazily from the retained training points and cached; this
        is what :mod:`repro.serve` persists as a detector artifact.
        """
        if self._result is None or self._fit_points is None:
            raise NotFittedError("call fit() before accessing core_model_")
        if self._core_model is None:
            self._core_model = CoreModel.from_fit(
                self._fit_points,
                self._result,
                self.eps,
                self.min_pts,
                engine=getattr(self._engine, "name", self.engine_name),
            )
        return self._core_model

    def __repr__(self) -> str:
        return (
            f"DBSCOUT(eps={self.eps}, min_pts={self.min_pts}, "
            f"engine={self.engine_name!r})"
        )


def detect_outliers(
    points: np.ndarray,
    eps: float,
    min_pts: int,
    engine: str = "vectorized",
    **engine_options: Any,
) -> DetectionResult:
    """Functional one-shot form of :class:`DBSCOUT`."""
    return DBSCOUT(eps, min_pts, engine=engine, **engine_options).fit(points)
