"""Unit tests for channels, output gates and the network model."""

import random

import pytest

from repro.engine.batching import AdaptiveDeadlineBatching, FixedSizeBatching, InstantFlush
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.items import DataItem
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import SinkUDF
from repro.qos.reporter import TaskReporter
from repro.simulation.kernel import Simulator


@pytest.fixture
def setup():
    """A producer gate wired to one consumer task over one channel."""
    sim = Simulator()
    network = NetworkModel(base_latency=0.001, per_batch_overhead=0.0, per_item_overhead=0.0)
    consumer = RuntimeTask(sim, "C", 0, SinkUDF(), random.Random(1), queue_capacity=4)
    consumer.start()
    producer = RuntimeTask(sim, "P", 0, SinkUDF(), random.Random(2))
    channel = RuntimeChannel(sim, consumer, network, "P->C", capacity=8)
    channel.producer = producer
    consumer.in_channels.append(channel)
    return sim, producer, consumer, channel


def item(payload="x", created=0.0):
    return DataItem(payload, created)


class TestNetworkModel:
    def test_transfer_time(self):
        net = NetworkModel(base_latency=0.001, bandwidth=1_000_000)
        assert net.transfer_time(1000) == pytest.approx(0.002)

    def test_shipping_overhead(self):
        net = NetworkModel(per_batch_overhead=0.001, per_item_overhead=0.0001)
        assert net.shipping_overhead(10) == pytest.approx(0.002)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkModel(base_latency=-1)
        with pytest.raises(ValueError):
            NetworkModel(per_item_overhead=-1)
        for name in ("base_latency", "bandwidth", "per_batch_overhead", "per_item_overhead"):
            with pytest.raises(ValueError):
                NetworkModel(**{name: float("nan")})


class TestChannelDelivery:
    def test_ship_delivers_after_transfer_time(self, setup):
        sim, producer, consumer, channel = setup
        it = item()
        assert channel.accept(it)
        channel.ship([it], batch_bytes=256)
        assert len(consumer.input_queue) == 0
        sim.run()
        # Item arrives, consumer (sink, zero service) processes it.
        assert consumer.items_processed == 1
        assert channel.items_delivered == 1
        assert channel.outstanding == 0

    def test_accept_stamps_emitted_at(self, setup):
        sim, _, _, channel = setup
        sim.schedule(2.0, lambda: None)
        sim.run()
        it = item()
        channel.accept(it)
        assert it.emitted_at == 2.0

    def test_accept_refuses_beyond_capacity(self, setup):
        sim, _, _, channel = setup
        accepted = [channel.accept(item()) for _ in range(10)]
        assert accepted.count(True) == 8
        assert accepted.count(False) == 2

    def test_full_queue_parks_items(self, setup):
        sim, producer, consumer, channel = setup
        consumer.state = "created"  # not running: nothing consumes
        items = [item() for _ in range(6)]
        for it in items:
            channel.accept(it)
        channel.ship(items, 256 * 6)
        sim.run()
        assert len(consumer.input_queue) == 4  # queue capacity
        assert channel.outstanding == 2  # the two parked items still hold credits

    def test_unblock_waiter_fires_on_release(self, setup):
        sim, _, consumer, channel = setup
        items = [item() for _ in range(8)]
        for it in items:
            channel.accept(it)
        fired = []
        channel.add_unblock_waiter(lambda: fired.append(sim.now))
        channel.ship(items[:1], 256)
        assert not fired  # in flight: the credit is still held
        sim.run()
        # Enqueueing at the consumer returns the credit and wakes the waiter.
        assert len(fired) == 1
        assert channel.outstanding == 7

    def test_batch_into_nearly_full_queue_parks_then_delivers_in_order(self, setup):
        sim, _, consumer, channel = setup
        consumer.reporter = TaskReporter("C", consumer.task_id, read_ready=True)
        consumer._busy = True  # an item is in service: arrivals only queue up
        queue = consumer.input_queue
        for _ in range(3):
            queue.try_put(item("old"), None)  # one free slot left
        batch = [item(i) for i in range(3)]
        for it in batch:
            channel.accept(it)
        channel.ship(batch, 3 * 256)
        sim.schedule(0.5, queue.get)
        sim.schedule(0.75, queue.get)

        arrival = channel.network.transfer_time(3 * 256)
        assert arrival == pytest.approx(0.001, abs=1e-4)
        sim.run(until=0.25)
        assert [entry[0].payload for entry in queue._items] == ["old", "old", "old", 0]
        assert channel.items_delivered == 1
        assert channel.outstanding == 2  # the parked items hold their credits
        assert len(queue._space_listeners) == 1
        assert consumer.reporter._interarrival == []  # the first arrival

        sim.run(until=0.6)  # the pop at 0.5 lets exactly one parked item in
        assert [entry[0].payload for entry in queue._items] == ["old", "old", 0, 1]
        assert channel.items_delivered == 2
        assert consumer.reporter._interarrival == [0.5 - arrival]

        sim.run()  # the pop at 0.75 lets the last one in
        assert [entry[0].payload for entry in queue._items] == ["old", 0, 1, 2]
        assert channel.items_delivered == 3
        assert channel.outstanding == 0
        assert not queue._space_listeners
        assert consumer.reporter._interarrival == [0.5 - arrival, 0.25]

    def test_close_releases_blocked_producer(self, setup):
        sim, _, _, channel = setup
        for _ in range(8):
            channel.accept(item())
        fired = []
        channel.add_unblock_waiter(lambda: fired.append(True))
        channel.close()
        assert fired == [True]
        assert channel.closed
        assert channel.outstanding == 0

    def test_closed_channel_accepts_and_drops(self, setup):
        sim, _, consumer, channel = setup
        channel.close()
        assert channel.accept(item())
        channel.ship([item()], 256)
        sim.run()
        assert consumer.items_processed == 0


class TestOutputGate:
    def make_gate(self, setup, strategy):
        sim, producer, consumer, channel = setup
        gate = OutputGate(
            sim, producer, "P->C", "round_robin", strategy,
            channel.network,
        )
        gate.set_channels([channel])
        producer.out_gates.append(gate)
        return gate

    def test_instant_flush_ships_immediately(self, setup):
        sim, producer, consumer, channel = setup
        gate = self.make_gate(setup, InstantFlush())
        assert gate.emit(channel, item())
        assert len(gate._buffer) == 0
        assert channel.batches_shipped == 1

    def test_fixed_size_waits_for_bytes(self, setup):
        sim, producer, consumer, channel = setup
        gate = self.make_gate(setup, FixedSizeBatching(1024))
        for _ in range(3):
            gate.emit(channel, item())
        assert channel.batches_shipped == 0
        assert len(gate._buffer) == 3
        gate.emit(channel, item())  # 4 x 256 = 1024
        assert channel.batches_shipped == 1
        assert len(gate._buffer) == 0

    def test_deadline_timer_flushes(self, setup):
        sim, producer, consumer, channel = setup
        gate = self.make_gate(setup, AdaptiveDeadlineBatching(initial_deadline=0.05))
        gate.emit(channel, item())
        assert channel.batches_shipped == 0
        sim.run(until=0.049)
        assert channel.batches_shipped == 0
        sim.run(until=0.051)
        assert channel.batches_shipped == 1

    def test_set_deadline_delegates_to_strategy(self, setup):
        gate = self.make_gate(setup, AdaptiveDeadlineBatching(initial_deadline=0.05))
        gate.set_deadline(0.02)
        assert gate.strategy.deadline == pytest.approx(0.02)

    def test_set_deadline_noop_for_fixed(self, setup):
        gate = self.make_gate(setup, FixedSizeBatching(1024))
        gate.set_deadline(0.02)  # must not raise

    def test_flush_now_ships_partial_buffer(self, setup):
        sim, producer, consumer, channel = setup
        gate = self.make_gate(setup, FixedSizeBatching(16 * 1024))
        gate.emit(channel, item())
        gate.flush_now()
        assert channel.batches_shipped == 1

    def test_flush_charges_producer_overhead(self, setup):
        sim, producer, consumer, channel = setup
        channel.network.per_batch_overhead = 0.002
        channel.network.per_item_overhead = 0.0001
        gate = self.make_gate(setup, InstantFlush())
        gate.emit(channel, item())
        assert producer._overhead_debt == pytest.approx(0.0021)

    def test_write_stall_forces_flush(self, setup):
        sim, producer, consumer, channel = setup
        consumer.state = "created"
        gate = self.make_gate(setup, FixedSizeBatching(16 * 1024))
        results = [gate.emit(channel, item()) for _ in range(8)]
        assert all(results)
        # 9th accept refused -> gate flushes the 8 buffered, retries: the
        # retry is also refused (credits still held by in-flight items).
        assert gate.emit(channel, item()) is False
        assert channel.batches_shipped == 1

    def test_partitioner_rebuilt_on_set_channels(self, setup):
        sim, producer, consumer, channel = setup
        gate = self.make_gate(setup, InstantFlush())
        other = RuntimeChannel(sim, consumer, channel.network, "P->C")
        gate.set_channels([channel, other])
        assert gate.partitioner.fanout == 2
        picks = {gate.channels[gate.partitioner.select("x")[0]] for _ in range(4)}
        assert picks == {channel, other}
