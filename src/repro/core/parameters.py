"""Parameter selection: the k-distance elbow heuristic (Section IV-C1).

The paper chooses ``eps`` the way DBSCAN users do: fix ``min_pts``,
plot the distance of each point to its ``min_pts``-th nearest neighbor
in descending order, and pick ``eps`` at the upper part of the elbow of
that curve.  :func:`k_distance_graph` computes the curve (exactly, with
a KD-tree) and :func:`estimate_eps` automates the elbow pick with the
maximum-curvature ("kneedle"-style) rule.
"""

from __future__ import annotations

import numpy as np

from repro.core.grid import validate_points
from repro.exceptions import ParameterError

__all__ = ["k_distance_graph", "estimate_eps"]


def _scaled_fallback(base: float, upper: float) -> float:
    """Apply ``upper`` uniformly to a degenerate-curve fallback value."""
    return (base if base > 0 else 1.0) * upper


def k_distance_graph(points: np.ndarray, k: int) -> np.ndarray:
    """Distances to each point's k-th nearest neighbor, descending.

    Args:
        points: Array of shape ``(n, d)``.
        k: Neighbor rank (the point itself is not counted), ``>= 1``.

    Returns:
        Array of shape ``(n,)``, sorted in descending order — the
        classic k-distance plot used to eyeball the elbow.
    """
    array = validate_points(points)
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n_points = array.shape[0]
    if n_points <= k:
        raise ParameterError(
            f"need more than k={k} points to compute k-distances, "
            f"got {n_points}"
        )
    # Imported here: scipy.spatial costs ~0.3 s to import, and nothing
    # else behind ``import repro`` needs it.
    from scipy.spatial import cKDTree

    tree = cKDTree(array)
    # Query k+1 because the nearest neighbor of a point is itself.
    distances, _ = tree.query(array, k=k + 1)
    k_distances = distances[:, k]
    return np.sort(k_distances)[::-1]


def estimate_eps(
    points: np.ndarray,
    min_pts: int,
    upper: float = 1.5,
    sample_size: int | None = None,
    seed: int = 0,
) -> float:
    """Pick ``eps`` from the elbow of the ``min_pts``-distance graph.

    The knee is located by the maximum distance from the curve to the
    straight line joining its endpoints (a standard knee heuristic).
    The paper then chooses eps "in the uppermost part of the elbow
    zone" — i.e. somewhat *above* the knee value, which separates the
    within-cluster distance scale from the outlier scale more robustly
    — so the returned value is ``upper`` times the knee k-distance.

    Args:
        points: Array of shape ``(n, d)``.
        min_pts: The density threshold that will be used for detection.
        upper: Safety factor above the knee (``1.0`` returns the raw
            knee; the default ``1.5`` lands in the upper elbow zone).
        sample_size: Estimate on a uniform random sample of this many
            points instead of the full dataset — the practical protocol
            at the paper's billion-point scale, where an exact
            k-distance graph is itself a large computation.  ``None``
            (default) uses every point.
        seed: RNG seed for the sample.

    Returns:
        The selected ``eps`` value (positive).
    """
    if upper <= 0:
        raise ParameterError(f"upper must be positive, got {upper}")
    array = np.asarray(points)
    if sample_size is not None:
        if sample_size <= min_pts:
            raise ParameterError(
                f"sample_size must exceed min_pts={min_pts}, "
                f"got {sample_size}"
            )
        if sample_size < array.shape[0]:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(
                array.shape[0], size=sample_size, replace=False
            )
            points = array[np.sort(chosen)]
    curve = k_distance_graph(points, min_pts)
    n_values = curve.shape[0]
    # Degenerate curves (too short, flat, or all-nonpositive) fall back
    # to the largest k-distance — still scaled by ``upper``, with 1.0
    # substituted only for a nonpositive base so the result stays a
    # valid eps.  Dropping ``upper`` here would silently ignore the
    # caller's safety factor on constant/duplicate data.
    if n_values < 3:
        return _scaled_fallback(float(curve[0]), upper)
    x = np.arange(n_values, dtype=np.float64)
    # Normalize both axes so the knee rule is scale-free.
    x_span = x[-1] - x[0]
    y_span = curve[0] - curve[-1]
    if y_span <= 0:  # flat curve: any value works
        return _scaled_fallback(float(curve[0]), upper)
    x_norm = x / x_span
    y_norm = (curve - curve[-1]) / y_span
    # Distance from each curve point to the endpoint chord.
    chord = y_norm[0] - y_norm[-1]  # == 1 after normalization
    line_y = y_norm[0] - chord * x_norm
    deviations = line_y - y_norm
    elbow = int(np.argmax(deviations))
    eps = float(curve[elbow])
    if eps <= 0:
        positive = curve[curve > 0]
        eps = float(positive[-1]) if positive.size else 1.0
    return eps * upper
