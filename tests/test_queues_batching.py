"""Unit tests for bounded queues and batching strategies."""

import random

import pytest

from repro.engine.batching import (
    AdaptiveDeadlineBatching,
    BatchingStrategy,
    FixedSizeBatching,
    InstantFlush,
)
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.items import DataItem
from repro.engine.queues import BoundedQueue
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import SinkUDF
from repro.simulation.kernel import Simulator


def item(created=0.0, size=256):
    return DataItem("payload", created, size)


def gate_over_one_channel(strategy):
    """An output gate shipping over one channel; returns (gate, channel)."""
    sim = Simulator()
    network = NetworkModel()
    consumer = RuntimeTask(sim, "C", 0, SinkUDF(), random.Random(1))
    producer = RuntimeTask(sim, "P", 0, SinkUDF(), random.Random(2))
    channel = RuntimeChannel(sim, consumer, network, "P->C", capacity=8)
    gate = OutputGate(sim, producer, "P->C", "round_robin", strategy, network)
    gate.set_channels([channel])
    return gate, channel


class TestBoundedQueue:
    def test_fifo_order(self):
        q = BoundedQueue(4)
        for i in range(3):
            q.try_put(item(created=float(i)), None)
        assert [q.get()[0].created_at for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_capacity_enforced(self):
        q = BoundedQueue(2)
        assert q.try_put(item(), None)
        assert q.try_put(item(), None)
        assert not q.try_put(item(), None)
        assert q.is_full

    def test_source_channel_returned(self):
        q = BoundedQueue(2)
        q.try_put(item(), "chan-a")
        _, source = q.get()
        assert source == "chan-a"

    def test_space_listener_fires_on_get(self):
        q = BoundedQueue(1)
        q.try_put(item(), None)
        fired = []
        q.add_space_listener(lambda: fired.append(True))
        q.get()
        assert fired == [True]

    def test_listener_fires_once(self):
        q = BoundedQueue(2)
        q.try_put(item(), None)
        q.try_put(item(), None)
        fired = []
        q.add_space_listener(lambda: fired.append(True))
        q.get()
        q.get()
        assert fired == [True]

    def test_listener_refilling_queue_blocks_later_listeners(self):
        q = BoundedQueue(1)
        q.try_put(item(), None)
        order = []

        def greedy():
            order.append("greedy")
            q.try_put(item(), None)

        q.add_space_listener(greedy)
        q.add_space_listener(lambda: order.append("starved"))
        q.get()
        assert order == ["greedy"]  # queue full again; second listener waits

    def test_drain(self):
        q = BoundedQueue(4)
        q.try_put(item(), None)
        q.try_put(item(), None)
        drained = q.drain()
        assert len(drained) == 2
        assert len(q) == 0

    def test_total_enqueued_counter(self):
        q = BoundedQueue(4)
        q.try_put(item(), None)
        q.get()
        q.try_put(item(), None)
        assert q.total_enqueued == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            BoundedQueue(0)


class TestInstantFlush:
    def test_always_flushes(self):
        gate, channel = gate_over_one_channel(InstantFlush())
        gate.emit(channel, item())
        assert channel.batches_shipped == 1

    def test_no_deadline(self):
        assert vars(InstantFlush()) == {}  # no size cap, no deadline

    def test_clone_independent(self):
        s = InstantFlush()
        assert s.clone() is not s


class TestFixedSizeBatching:
    def test_flushes_at_byte_limit(self):
        s = FixedSizeBatching(1024)
        assert s.buffer_bytes == 1024
        gate, channel = gate_over_one_channel(s)
        for _ in range(3):
            gate.emit(channel, item())  # 768 bytes buffered
        assert channel.batches_shipped == 0
        gate.emit(channel, item())
        assert channel.batches_shipped == 1

    def test_no_deadline(self):
        assert not hasattr(FixedSizeBatching(1024), "deadline")

    def test_clone_copies_size(self):
        assert FixedSizeBatching(2048).clone().buffer_bytes == 2048

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            FixedSizeBatching(0)


class TestAdaptiveDeadlineBatching:
    def test_deadline_reported(self):
        s = AdaptiveDeadlineBatching(initial_deadline=0.010)
        assert s.deadline == pytest.approx(0.010)

    def test_set_deadline_clamped(self):
        s = AdaptiveDeadlineBatching(0.01, min_deadline=0.001, max_deadline=0.1)
        s.set_deadline(5.0)
        assert s.deadline == 0.1
        s.set_deadline(0.0)
        assert s.deadline == 0.001

    def test_zero_deadline_means_instant(self):
        s = AdaptiveDeadlineBatching(0.0, min_deadline=0.0)
        assert s.deadline == 0.0
        gate, channel = gate_over_one_channel(s)
        gate.emit(channel, item())
        assert channel.batches_shipped == 1

    def test_size_cap_still_flushes(self):
        s = AdaptiveDeadlineBatching(0.01, buffer_bytes=512)
        assert s.buffer_bytes == 512
        gate, channel = gate_over_one_channel(s)
        gate.emit(channel, item())
        assert channel.batches_shipped == 0  # waiting for the deadline
        gate.emit(channel, item())
        assert channel.batches_shipped == 1

    def test_clone_copies_state(self):
        s = AdaptiveDeadlineBatching(0.02, buffer_bytes=4096)
        c = s.clone()
        assert c.deadline == pytest.approx(0.02)
        assert c.buffer_bytes == 4096
        c.set_deadline(0.05)
        assert s.deadline == pytest.approx(0.02)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveDeadlineBatching(0.01, min_deadline=0.5, max_deadline=0.1)
        with pytest.raises(ValueError):
            AdaptiveDeadlineBatching(0.01, buffer_bytes=0)

    def test_nan_deadline_rejected_not_clamped_to_max(self):
        # min/max would turn NaN into max_deadline (0.5 s) without a word
        with pytest.raises(ValueError, match="NaN"):
            AdaptiveDeadlineBatching(float("nan"))
        s = AdaptiveDeadlineBatching(0.01)
        with pytest.raises(ValueError, match="NaN"):
            s.set_deadline(float("nan"))
        assert s.deadline == 0.01

    def test_infinite_deadlines_still_clamp(self):
        s = AdaptiveDeadlineBatching(float("inf"), min_deadline=0.001, max_deadline=0.1)
        assert s.deadline == 0.1
        s.set_deadline(float("-inf"))
        assert s.deadline == 0.001


def test_output_gate_refuses_other_strategy_types():
    class EveryOtherItem(BatchingStrategy):
        pass

    with pytest.raises(
        TypeError, match="InstantFlush, FixedSizeBatching or AdaptiveDeadlineBatching"
    ):
        gate_over_one_channel(EveryOtherItem())
