"""Unit tests for input queues and batching strategies."""

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
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import SinkUDF
from repro.qos.reporter import ChannelReporter
from repro.simulation.kernel import Simulator

from conftest import fed_consumer, put, serve


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
    """A consumer's input queue, driven the way a run drives it.

    Items enter through ``RuntimeChannel._arrive`` (what does not fit
    parks in its channel) and leave through ``RuntimeTask._start_next``.
    """

    def test_fifo_order(self):
        sim, consumer, done, [feed] = fed_consumer(4)
        for payload in "abc":
            put(sim, feed, payload)
        assert [entry[0].payload for entry in consumer.input_queue._items] == ["b", "c"]
        serve(sim, 3.0)
        assert done == ["a", "b", "c"]

    def test_capacity_enforced(self):
        sim, consumer, _, [feed] = fed_consumer(2)
        channel = feed[1]
        for i in range(5):
            put(sim, feed, i)
        # one in service, two queued: the overflow parks, holding its credits
        assert len(consumer.input_queue) == 2
        assert [it.payload for it in channel._pending] == [3, 4]
        assert channel.outstanding == 2
        assert len(consumer.input_queue._space_listeners) == 1

    def test_source_channel_returned(self):
        """Each entry names its channel; the pop books channel latency there."""
        sim, consumer, _, (a, b) = fed_consumer(4, channels=2)
        for _, channel in (a, b):
            channel.reporter = ChannelReporter("P->C", channel.channel_id)
        put(sim, a, "x")  # starts at once
        put(sim, b, "y")
        put(sim, a, "z")
        assert [entry[1] for entry in consumer.input_queue._items] == [b[1], a[1]]
        serve(sim, 2.0)
        assert a[1].reporter._latency == [0.0, 2.0]
        assert b[1].reporter._latency == [1.0]

    def test_space_listener_fires_on_get(self):
        sim, consumer, _, [feed] = fed_consumer(1)
        queue, channel = consumer.input_queue, feed[1]
        for i in range(3):
            put(sim, feed, i)
        assert len(queue._space_listeners) == 1
        serve(sim)  # 0 completes, 1 is popped: the freed slot takes the parked 2
        assert [entry[0].payload for entry in queue._items] == [2]
        assert not channel._pending and not queue._space_listeners

    def test_listener_fires_once(self):
        """A channel listens while it has parked items, and only then."""
        sim, consumer, done, [feed] = fed_consumer(2)
        queue, channel = consumer.input_queue, feed[1]
        for i in range(6):
            put(sim, feed, i)
        for _ in range(6):
            assert len(queue._space_listeners) == (1 if channel._pending else 0)
            serve(sim)
        assert done == list(range(6))
        assert not queue._space_listeners and not channel._pending_listener_armed

    def test_listener_refilling_queue_blocks_later_listeners(self):
        sim, consumer, done, (a, b) = fed_consumer(1, channels=2)
        for payload in ("a0", "a1", "a2"):
            put(sim, a, payload)
        put(sim, b, "b0")  # parks behind a's listener
        serve(sim)
        # a's parked item took the freed slot; b's listener still waits
        assert (a[1].items_delivered, b[1].items_delivered) == (3, 0)
        assert len(consumer.input_queue._space_listeners) == 1
        serve(sim, 3.0)
        assert done == ["a0", "a1", "a2", "b0"]

    def test_drain(self):
        """A crash drains the queue; the closed channel's parked items stay dropped."""
        sim, consumer, done, [feed] = fed_consumer(2)
        queue, channel = consumer.input_queue, feed[1]
        for i in range(5):
            put(sim, feed, i)
        consumer.fail()
        assert len(queue) == 0
        assert channel.closed and not channel._pending
        serve(sim, 5.0)
        assert done == []
        assert queue.total_enqueued == 3

    def test_total_enqueued_counter(self):
        sim, consumer, _, [feed] = fed_consumer(4)
        for i in range(3):
            put(sim, feed, i)
        serve(sim)
        put(sim, feed, 3)
        assert consumer.input_queue.total_enqueued == 4 == feed[1].items_delivered

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            RuntimeTask(Simulator(), "C", 0, SinkUDF(), random.Random(1), queue_capacity=0)


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
