"""Tests for RDD.top / RDD.take_ordered."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SparkLiteError
from repro.sparklite import Context


@pytest.fixture
def ctx() -> Context:
    return Context(default_parallelism=4)


class TestTop:
    def test_largest(self, ctx):
        assert ctx.parallelize([5, 3, 9, 1]).top(2) == [9, 5]

    def test_with_key(self, ctx):
        data = [("a", 3), ("b", 9), ("c", 1)]
        assert ctx.parallelize(data).top(1, key=lambda kv: kv[1]) == [
            ("b", 9)
        ]

    def test_n_exceeds_size(self, ctx):
        assert ctx.parallelize([2, 1]).top(10) == [2, 1]

    def test_invalid_n(self, ctx):
        with pytest.raises(SparkLiteError):
            ctx.parallelize([1]).top(0)


class TestTakeOrdered:
    def test_smallest(self, ctx):
        assert ctx.parallelize([5, 3, 9, 1]).take_ordered(2) == [1, 3]

    def test_with_key(self, ctx):
        data = ["ccc", "a", "bb"]
        assert ctx.parallelize(data).take_ordered(2, key=len) == ["a", "bb"]

    def test_invalid_n(self, ctx):
        with pytest.raises(SparkLiteError):
            ctx.parallelize([1]).take_ordered(-1)


@settings(max_examples=50, deadline=None)
@given(
    data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=80),
    n=st.integers(min_value=1, max_value=20),
    n_parts=st.integers(min_value=1, max_value=5),
)
def test_top_matches_sorted(data, n, n_parts):
    ctx = Context(default_parallelism=n_parts)
    rdd = ctx.parallelize(data, n_parts)
    assert rdd.top(n) == sorted(data, reverse=True)[:n]
    assert rdd.take_ordered(n) == sorted(data)[:n]


def test_top_n_outliers_use_case(rng=None):
    """The motivating use: top-N outliers by score without a full sort."""
    import numpy as np

    from repro import nearest_core_distance
    from repro.sparklite import Context

    generator = np.random.default_rng(4)
    points = np.vstack(
        [generator.normal(0, 0.4, (200, 2)), generator.uniform(-9, 9, (15, 2))]
    )
    scores = nearest_core_distance(points, 0.8, 8)
    ctx = Context(default_parallelism=4)
    ranked = ctx.parallelize(
        [(int(i), float(s)) for i, s in enumerate(np.nan_to_num(scores, posinf=1e18))]
    )
    top5 = ranked.top(5, key=lambda pair: pair[1])
    clipped = np.nan_to_num(scores, posinf=1e18)
    expected_scores = np.sort(clipped)[::-1][:5]
    assert sorted((s for _i, s in top5), reverse=True) == pytest.approx(
        expected_scores
    )
