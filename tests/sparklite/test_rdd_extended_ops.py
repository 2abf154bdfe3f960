"""Tests for the extended SparkLite operations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparklite import Context


@pytest.fixture
def ctx() -> Context:
    return Context(default_parallelism=4)


class TestOuterJoins:
    def test_full_outer_join(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2)])
        right = ctx.parallelize([("b", "x"), ("c", "y")])
        joined = dict(left.full_outer_join(right).collect())
        assert joined == {
            "a": (1, None),
            "b": (2, "x"),
            "c": (None, "y"),
        }

    def test_full_outer_join_cross_product(self, ctx):
        left = ctx.parallelize([("k", 1), ("k", 2)])
        right = ctx.parallelize([("k", "x")])
        values = sorted(v for _k, v in left.full_outer_join(right).collect())
        assert values == [(1, "x"), (2, "x")]

    def test_subtract_by_key(self, ctx):
        left = ctx.parallelize([("a", 1), ("b", 2), ("c", 3), ("a", 4)])
        right = ctx.parallelize([("a", None), ("c", None)])
        remaining = left.subtract_by_key(right).collect()
        assert remaining == [("b", 2)]

    def test_subtract_by_key_empty_right(self, ctx):
        left = ctx.parallelize([("a", 1)])
        right = ctx.empty_rdd()
        assert left.subtract_by_key(right).collect() == [("a", 1)]


class TestAggregations:
    def test_aggregate_by_key_mean(self, ctx):
        pairs = [("a", 1.0), ("a", 3.0), ("b", 10.0)]
        sums_counts = dict(
            ctx.parallelize(pairs, 3)
            .aggregate_by_key(
                (0.0, 0),
                lambda acc, v: (acc[0] + v, acc[1] + 1),
                lambda a, b: (a[0] + b[0], a[1] + b[1]),
            )
            .collect()
        )
        assert sums_counts == {"a": (4.0, 2), "b": (10.0, 1)}

    def test_aggregate_zero_not_shared_between_keys(self, ctx):
        # A mutable zero must not leak state across keys.
        pairs = [("a", 1), ("b", 2)]
        lists = dict(
            ctx.parallelize(pairs, 1)
            .aggregate_by_key(
                [],
                lambda acc, v: acc + [v],
                lambda a, b: a + b,
            )
            .collect()
        )
        assert lists == {"a": [1], "b": [2]}

    def test_fold_by_key(self, ctx):
        pairs = [("x", 2), ("x", 3), ("y", 5)]
        products = dict(
            ctx.parallelize(pairs, 2)
            .fold_by_key(1, lambda a, b: a * b)
            .collect()
        )
        assert products == {"x": 6, "y": 5}


class TestSortBy:
    def test_ascending(self, ctx):
        rng = random.Random(0)
        data = [rng.randrange(1000) for _ in range(300)]
        result = ctx.parallelize(data, 5).sort_by(lambda x: x).collect()
        assert result == sorted(data)

    def test_descending(self, ctx):
        data = [3, 1, 4, 1, 5, 9, 2, 6]
        result = (
            ctx.parallelize(data, 3)
            .sort_by(lambda x: x, ascending=False)
            .collect()
        )
        assert result == sorted(data, reverse=True)

    def test_key_function(self, ctx):
        data = [("b", 2), ("a", 3), ("c", 1)]
        result = ctx.parallelize(data).sort_by(lambda kv: kv[1]).collect()
        assert result == [("c", 1), ("b", 2), ("a", 3)]

    def test_output_partitions(self, ctx):
        result = ctx.parallelize(range(100), 4).sort_by(
            lambda x: -x, num_partitions=6
        )
        assert result.num_partitions == 6
        assert result.collect() == list(range(99, -1, -1))

    def test_empty(self, ctx):
        assert ctx.parallelize([]).sort_by(lambda x: x).collect() == []

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.integers(-1000, 1000), max_size=120),
        n_parts=st.integers(min_value=1, max_value=6),
    )
    def test_sort_property(self, data, n_parts):
        ctx = Context(default_parallelism=n_parts)
        result = ctx.parallelize(data, n_parts).sort_by(lambda x: x).collect()
        assert result == sorted(data)


class TestZipWithIndex:
    def test_indices_are_global(self, ctx):
        data = ["a", "b", "c", "d", "e"]
        indexed = ctx.parallelize(data, 3).zip_with_index().collect()
        assert indexed == [(v, i) for i, v in enumerate(data)]

    def test_empty_partitions(self, ctx):
        indexed = ctx.parallelize([1], 4).zip_with_index().collect()
        assert indexed == [(1, 0)]

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(st.integers(), max_size=80),
        n_parts=st.integers(min_value=1, max_value=5),
    )
    def test_index_property(self, data, n_parts):
        ctx = Context(default_parallelism=n_parts)
        indexed = ctx.parallelize(data, n_parts).zip_with_index().collect()
        assert [v for v, _i in indexed] == data
        assert [i for _v, i in indexed] == list(range(len(data)))
