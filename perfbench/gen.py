"""Seeded input generators owned by the benchmark.

Every workload input is made here from ``--seed`` alone, with NumPy
only, so a change to the program under test can never change what a
workload feeds it.  The same seed always gives the same arrays.

The geometry of each dataset -- the city's hotspots, the commuter
tracks, the mixture's cluster centers -- is fixed; the seed draws the
points.  Every seed is then a fresh sample of the same map, so the
work a fit does varies little from seed to seed.
"""

from __future__ import annotations

import numpy as np

#: Training-set sizes of the two fit workloads.
GEOLIFE_POINTS = 200_000
MIXTURE_POINTS = 100_000

#: Points per served query and per stream probe.
QUERY_POINTS = 8
#: Share of query/probe points that are jittered copies of data points;
#: the rest is uniform scatter far from the data.
JITTERED_SHARE = 0.9
QUERY_JITTER = 5.0


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input kind, derived from one seed."""
    return np.random.default_rng([int(seed), sum(map(ord, stream))])


#: Seed of the fixed dataset geometry (not the workload seed).
_GEOMETRY = 2021


def geolife_like(seed: int, n_points: int = GEOLIFE_POINTS) -> np.ndarray:
    """Skewed 3-D GPS-like points in meter units (Geolife stand-in).

    70% sit in one city made of twelve sub-hotspots, the first of which
    is very tight and holds over half of the city; 25% follow forty
    commuter tracks radiating from the city; 5% are scattered over a
    4000 km square.  The third column is altitude.
    """
    layout = _rng(_GEOMETRY, "geolife-map")
    centers = layout.normal(0.0, 3_000.0, size=(12, 2))
    centers[0] = layout.uniform(-500.0, 500.0, size=2)
    starts = layout.normal(0.0, 25_000.0, size=(40, 2))
    ends = starts + layout.normal(0.0, 12_500.0, size=(40, 2))

    rng = _rng(seed, "geolife")
    n_city = int(n_points * 0.70)
    n_tracks = int(n_points * 0.25)
    n_world = n_points - n_city - n_tracks
    share = np.full(12, 0.45 / 11)
    share[0] = 0.55
    spot = rng.choice(12, size=n_city, p=share)
    tight = spot == 0
    xy = centers[spot] + rng.normal(size=(n_city, 2)) * np.where(
        tight, 15.0, 400.0
    )[:, None]
    alt = 160.0 + rng.normal(size=n_city) * np.where(tight, 8.0, 30.0)
    city = np.column_stack([xy, alt])

    track = rng.integers(0, 40, size=n_tracks)
    along = rng.uniform(size=(n_tracks, 1))
    track_xy = starts[track] + along * (ends[track] - starts[track])
    track_xy += rng.normal(0.0, 30.0, size=(n_tracks, 2))
    tracks = np.column_stack(
        [track_xy, rng.normal(200.0, 80.0, size=n_tracks)]
    )

    world = np.column_stack([
        rng.uniform(-2.0e6, 2.0e6, size=(n_world, 2)),
        rng.uniform(0.0, 10_000.0, size=n_world),
    ])
    points = np.vstack([city, tracks, world])
    return np.ascontiguousarray(points[rng.permutation(n_points)])


def mixture_5d(seed: int, n_points: int = MIXTURE_POINTS) -> np.ndarray:
    """Five sigma=0.4 Gaussian clusters in [-5, 5]^5 plus 5% uniform
    scatter in [-10, 10]^5."""
    centers = _rng(_GEOMETRY, "mixture-centers").uniform(-5.0, 5.0, size=(5, 5))
    rng = _rng(seed, "mixture")
    n_scatter = int(n_points * 0.05)
    n_clustered = n_points - n_scatter
    members = rng.integers(0, 5, size=n_clustered)
    clustered = centers[members] + rng.normal(0.0, 0.4, size=(n_clustered, 5))
    scatter = rng.uniform(-10.0, 10.0, size=(n_scatter, 5))
    points = np.vstack([clustered, scatter])
    return np.ascontiguousarray(points[rng.permutation(n_points)])


def far_scatter(rng: np.random.Generator, n_points: int) -> np.ndarray:
    """Uniform 3-D points over a box twice the size of the geolife map."""
    return np.column_stack([
        rng.uniform(-4.0e6, 4.0e6, size=(n_points, 2)),
        rng.uniform(0.0, 20_000.0, size=n_points),
    ])


def query_mix(
    rng: np.random.Generator, source: np.ndarray, n_queries: int
) -> np.ndarray:
    """``(n_queries, QUERY_POINTS, 3)`` query batches.

    Each point is, with probability ``JITTERED_SHARE``, a copy of a
    random ``source`` point jittered by N(0, QUERY_JITTER^2) per axis,
    and otherwise a far-scatter point.
    """
    shape = (n_queries, QUERY_POINTS)
    picks = source[rng.integers(0, source.shape[0], size=shape)]
    jittered = picks + rng.normal(0.0, QUERY_JITTER, size=picks.shape)
    far = far_scatter(rng, n_queries * QUERY_POINTS).reshape(picks.shape)
    use_far = rng.uniform(size=shape) >= JITTERED_SHARE
    return np.where(use_far[..., None], far, jittered)


def serve_queries(seed: int, train: np.ndarray, n_queries: int) -> np.ndarray:
    """The served-query pool for ``serve-query``."""
    return query_mix(_rng(seed, "queries"), train, n_queries)


class ArrivalStream:
    """The ``stream-churn`` arrival order and per-step probes.

    Arrivals are a seeded permutation of a geolife-like population, so
    consecutive batches are spread over the whole map and so are the
    oldest points a count window evicts.  The sequence repeats when it
    runs out; a repeated point is simply a duplicate of an evicted one.
    """

    def __init__(self, seed: int, window: int, batch: int) -> None:
        population = geolife_like(seed)
        self._order = population[_rng(seed, "arrivals").permutation(
            population.shape[0]
        )]
        self._seed = int(seed)
        self.window = int(window)
        self.batch = int(batch)

    def _take(self, start: int, count: int) -> np.ndarray:
        index = np.arange(start, start + count) % self._order.shape[0]
        return self._order[index]

    def fill(self) -> np.ndarray:
        """The first ``window`` arrivals, ingested in one batch."""
        return self._take(0, self.window)

    def step(self, number: int) -> np.ndarray:
        """Arrivals of step ``number`` (0-based, after the fill)."""
        return self._take(self.window + number * self.batch, self.batch)

    def window_after(self, number: int) -> np.ndarray:
        """The active count window after step ``number`` (``-1`` is the
        fill), oldest first."""
        end = self.window + (number + 1) * self.batch
        return self._take(end - self.window, self.window)

    def probe(self, number: int) -> np.ndarray:
        """The 8-point probe sent after step ``number``."""
        rng = _rng(self._seed * 1_000_003 + number + 1, "probe")
        return query_mix(rng, self.window_after(number), 1)[0]
