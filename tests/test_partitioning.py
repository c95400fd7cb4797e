"""Unit and property tests for stream partitioners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.partitioning import (
    BroadcastPartitioner,
    KeyPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    make_partitioner,
)


class TestRoundRobin:
    def test_cycles_through_targets(self):
        p = RoundRobinPartitioner(3)
        picks = [p.select(None)[0] for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_start_offset(self):
        p = RoundRobinPartitioner(3, start=2)
        assert [p.select(None)[0] for _ in range(3)] == [2, 0, 1]

    def test_balanced_distribution(self):
        p = RoundRobinPartitioner(4)
        counts = [0] * 4
        for _ in range(400):
            counts[p.select(None)[0]] += 1
        assert counts == [100] * 4

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_always_in_range(self, fanout, n):
        p = RoundRobinPartitioner(fanout)
        for _ in range(n):
            (i,) = p.select(None)
            assert 0 <= i < fanout


class TestKeyPartitioner:
    def test_same_key_same_target(self):
        p = KeyPartitioner(7, key_fn=lambda x: x)
        assert p.select("abc") == p.select("abc")

    def test_key_fn_extracts(self):
        p = KeyPartitioner(4, key_fn=lambda x: x["user"])
        a = p.select({"user": "u1", "v": 1})
        b = p.select({"user": "u1", "v": 2})
        assert a == b

    def test_requires_key_fn(self):
        with pytest.raises(ValueError):
            KeyPartitioner(4, key_fn=None)

    def test_spreads_keys(self):
        p = KeyPartitioner(8, key_fn=lambda x: x)
        targets = {p.select(f"key-{i}")[0] for i in range(200)}
        assert len(targets) >= 6  # nearly all partitions hit

    @given(st.integers(min_value=1, max_value=32), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_in_range(self, fanout, key):
        p = KeyPartitioner(fanout, key_fn=lambda x: x)
        (i,) = p.select(key)
        assert 0 <= i < fanout


class TestBroadcast:
    def test_selects_all(self):
        p = BroadcastPartitioner(4)
        assert list(p.select("x")) == [0, 1, 2, 3]


class TestFactory:
    def test_round_robin(self):
        assert isinstance(make_partitioner("round_robin", 2), RoundRobinPartitioner)

    def test_key(self):
        assert isinstance(make_partitioner("key", 2, key_fn=lambda x: x), KeyPartitioner)

    def test_key_without_fn_rejected(self):
        with pytest.raises(ValueError):
            make_partitioner("key", 2)

    def test_broadcast(self):
        assert isinstance(make_partitioner("broadcast", 2), BroadcastPartitioner)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_partitioner("nope", 2)

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            make_partitioner("round_robin", 0)

    def test_base_class_abstract(self):
        with pytest.raises(NotImplementedError):
            Partitioner(2).select(None)
