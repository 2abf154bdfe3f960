"""LiveDetector memory: the engine holds O(window) points, exactly.

Evicted points stay in the incremental engine only until they outnumber
the window; then the engine is compacted to the window, renumbered in
arrival order.  Labels, snapshots and drift must not notice.
"""

import numpy as np
import pytest

from repro import DBSCOUT
from repro.stream import CountWindow, LiveDetector, TimeWindow

EPS, MIN_PTS = 0.3, 5


def _batch(rng, n):
    scatter = n // 10
    return np.vstack(
        [rng.normal(0.0, 0.6, size=(n - scatter, 2)), rng.uniform(-4, 4, (scatter, 2))]
    )


@pytest.mark.parametrize(
    "make_policy, batch_size",
    [(lambda: CountWindow(1000), 2000), (lambda: TimeWindow(1.0), 500)],
    ids=["count", "time"],
)
def test_engine_stays_bounded_and_exact_across_compactions(make_policy, batch_size):
    rng = np.random.default_rng(3)
    live = LiveDetector(EPS, MIN_PTS, window=make_policy())
    largest = 0
    for tick in range(40):
        live.ingest(_batch(rng, batch_size), timestamps=float(tick))
        engine = live._engine
        assert engine.n_points <= 2 * live.window_points + batch_size
        largest = max(largest, engine._buffer.shape[0])
        if tick % 9 == 4:
            window = live.result()
            batch = DBSCOUT(eps=EPS, min_pts=MIN_PTS).fit(live.active_points())
            assert np.array_equal(window.outlier_mask, batch.outlier_mask)
            assert np.array_equal(window.core_mask, batch.core_mask)
    assert live.window_points == 1000
    assert largest <= 4 * (2 * 1000 + batch_size)
    telemetry = live.telemetry()
    assert telemetry["incremental.points_inserted"] == 40 * batch_size
    assert telemetry["incremental.window_points"] == 1000


def test_compaction_keeps_arrival_order_and_snapshot_labels():
    rng = np.random.default_rng(5)
    live = LiveDetector(EPS, MIN_PTS, window=1000)
    fill, churn, late = _batch(rng, 1000), _batch(rng, 900), _batch(rng, 200)
    live.ingest(fill)
    live.ingest(churn)  # 900 evicted, 1000 active: no compaction yet
    assert live._engine.n_points == 1900
    labels = live.snapshot().model.classify(live.active_points()).astype(bool)
    live.ingest(late)  # 1100 evicted > 1000 active: compacted
    assert live._engine.n_points == 1000
    expected = np.vstack([fill, churn, late])[-1000:]
    assert np.array_equal(live.active_points(), expected)
    outliers = live.result().outlier_mask
    drift = np.mean(outliers[:800] != labels[200:])
    assert live.drift_since_snapshot() == pytest.approx(drift)
