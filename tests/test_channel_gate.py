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


def gate_for(setup, strategy=None):
    """The producer's output gate over the fixture's channel (instant flush)."""
    sim, producer, consumer, channel = setup
    gate = OutputGate(
        sim, producer, "P->C", "round_robin", strategy or InstantFlush(),
        channel.network,
    )
    gate.set_channels([channel])
    producer.out_gates.append(gate)
    return gate


class TestChannelDelivery:
    def test_ship_delivers_after_transfer_time(self, setup):
        sim, producer, consumer, channel = setup
        assert gate_for(setup).emit(channel, item())
        assert len(consumer.input_queue) == 0
        assert channel.outstanding == 1  # in flight: the credit is held
        sim.run()
        # Item arrives, consumer (sink, zero service) processes it.
        assert consumer.items_processed == 1
        assert channel.items_delivered == 1
        assert channel.outstanding == 0

    def test_accept_stamps_emitted_at(self, setup):
        sim, _, _, channel = setup
        gate = gate_for(setup)
        sim.schedule(2.0, lambda: None)
        sim.run()
        it = item()
        gate.emit(channel, it)
        assert it.emitted_at == 2.0

    def test_accept_refuses_beyond_capacity(self, setup):
        _, _, _, channel = setup
        gate = gate_for(setup)
        accepted = [gate.emit(channel, item()) for _ in range(10)]
        assert accepted == [True] * 8 + [False] * 2
        assert channel.items_emitted == channel.outstanding == 8

    def test_full_queue_parks_items(self, setup):
        sim, producer, consumer, channel = setup
        consumer.state = "created"  # not running: nothing consumes
        gate = gate_for(setup)
        for _ in range(6):
            assert gate.emit(channel, item())
        sim.run()
        assert len(consumer.input_queue) == 4  # queue capacity
        assert len(channel._pending) == 2
        assert channel.outstanding == 2  # the two parked items still hold credits

    def test_unblock_waiter_fires_on_release(self, setup):
        sim, _, consumer, channel = setup
        gate = gate_for(setup)
        for _ in range(8):
            assert gate.emit(channel, item())
        assert not gate.emit(channel, item())  # every credit is in use
        fired = []
        channel.add_unblock_waiter(lambda: fired.append((sim.now, channel.outstanding)))
        arrival = channel.network.transfer_time(256)
        sim.run(until=arrival / 2)
        assert not fired  # in flight: the credits are still held
        sim.run()
        # The first enqueue at the consumer returns a credit and wakes the
        # waiter, once.
        assert fired == [(arrival, 7)]
        assert channel.outstanding == 0

    def test_batch_into_nearly_full_queue_parks_then_delivers_in_order(self):
        sim = Simulator()
        network = NetworkModel(base_latency=0.001, per_batch_overhead=0.0, per_item_overhead=0.0)
        # old0 serves 0.5 s and old1 0.25 s, so the pops come at known times
        service = {"old0": 0.5, "old1": 0.25}

        class Timed(SinkUDF):
            def service_time(self, payload, rng):
                return service.get(payload, 10.0)

        consumer = RuntimeTask(sim, "C", 0, Timed(), random.Random(1), queue_capacity=4)
        consumer.start()
        producer = RuntimeTask(sim, "P", 0, SinkUDF(), random.Random(2))
        channel = RuntimeChannel(sim, consumer, network, "P->C", capacity=8)
        consumer.in_channels.append(channel)
        gate = gate_for((sim, producer, consumer, channel), FixedSizeBatching(16 * 1024))
        queue = consumer.input_queue
        for i in range(4):
            gate.emit(channel, item(f"old{i}"))
        gate.flush_now()
        sim.run(until=0.01)
        # old0 is in service: one free slot left
        old_arrival = network.transfer_time(4 * 256)
        assert [entry[0].payload for entry in queue._items] == ["old1", "old2", "old3"]

        consumer.reporter = TaskReporter("C", consumer.task_id, read_ready=True)
        batch = [item(i) for i in range(3)]
        for it in batch:
            gate.emit(channel, it)
        gate.flush_now()
        arrival = 0.01 + network.transfer_time(3 * 256)
        sim.run(until=0.25)
        assert [entry[0].payload for entry in queue._items] == ["old1", "old2", "old3", 0]
        assert channel.items_delivered == 4 + 1
        assert channel.outstanding == 2  # the parked items hold their credits
        assert len(queue._space_listeners) == 1
        assert consumer.reporter._interarrival == []  # the first arrival

        sim.run(until=0.6)  # old0 completes: old1's pop lets one parked item in
        assert [entry[0].payload for entry in queue._items] == ["old2", "old3", 0, 1]
        assert channel.items_delivered == 4 + 2
        first_pop = old_arrival + 0.5
        assert consumer.reporter._interarrival == [first_pop - arrival]

        sim.run(until=0.9)  # old1 completes: old2's pop lets the last one in
        assert [entry[0].payload for entry in queue._items] == ["old3", 0, 1, 2]
        assert channel.items_delivered == 4 + 3
        assert channel.outstanding == 0
        assert not queue._space_listeners
        assert consumer.reporter._interarrival == pytest.approx([first_pop - arrival, 0.25])

    def test_close_releases_blocked_producer(self, setup):
        sim, _, consumer, channel = setup
        gate = gate_for(setup)
        for _ in range(8):
            gate.emit(channel, item())
        fired = []
        channel.add_unblock_waiter(lambda: fired.append(True))
        channel.close()
        assert fired == [True]
        assert channel.closed
        assert channel.outstanding == 0
        sim.run()  # the in-flight items are dropped on arrival
        assert consumer.items_processed == 0

    def test_closed_channel_accepts_and_drops(self, setup):
        sim, _, consumer, channel = setup
        channel.close()
        assert gate_for(setup).emit(channel, item())
        sim.run()
        assert consumer.items_processed == 0
        assert channel.items_emitted == channel.batches_shipped == 0


class TestOutputGate:
    def test_instant_flush_ships_immediately(self, setup):
        sim, producer, consumer, channel = setup
        gate = gate_for(setup, InstantFlush())
        assert gate.emit(channel, item())
        assert len(gate._buffer) == 0
        assert channel.batches_shipped == 1

    def test_fixed_size_waits_for_bytes(self, setup):
        sim, producer, consumer, channel = setup
        gate = gate_for(setup, FixedSizeBatching(1024))
        for _ in range(3):
            gate.emit(channel, item())
        assert channel.batches_shipped == 0
        assert len(gate._buffer) == 3
        gate.emit(channel, item())  # 4 x 256 = 1024
        assert channel.batches_shipped == 1
        assert len(gate._buffer) == 0

    def test_deadline_timer_flushes(self, setup):
        sim, producer, consumer, channel = setup
        gate = gate_for(setup, AdaptiveDeadlineBatching(initial_deadline=0.05))
        gate.emit(channel, item())
        assert channel.batches_shipped == 0
        sim.run(until=0.049)
        assert channel.batches_shipped == 0
        sim.run(until=0.051)
        assert channel.batches_shipped == 1

    def test_set_deadline_delegates_to_strategy(self, setup):
        gate = gate_for(setup, AdaptiveDeadlineBatching(initial_deadline=0.05))
        gate.set_deadline(0.02)
        assert gate.strategy.deadline == pytest.approx(0.02)

    def test_set_deadline_noop_for_fixed(self, setup):
        gate = gate_for(setup, FixedSizeBatching(1024))
        gate.set_deadline(0.02)  # must not raise

    def test_flush_now_ships_partial_buffer(self, setup):
        sim, producer, consumer, channel = setup
        gate = gate_for(setup, FixedSizeBatching(16 * 1024))
        gate.emit(channel, item())
        gate.flush_now()
        assert channel.batches_shipped == 1

    def test_flush_charges_producer_overhead(self, setup):
        sim, producer, consumer, channel = setup
        channel.network.per_batch_overhead = 0.002
        channel.network.per_item_overhead = 0.0001
        gate = gate_for(setup, InstantFlush())
        gate.emit(channel, item())
        assert producer._overhead_debt == pytest.approx(0.0021)

    def test_write_stall_forces_flush(self, setup):
        sim, producer, consumer, channel = setup
        consumer.state = "created"
        gate = gate_for(setup, FixedSizeBatching(16 * 1024))
        results = [gate.emit(channel, item()) for _ in range(8)]
        assert all(results)
        # 9th emit: every credit is held by the 8 buffered items, so the
        # gate ships them and refuses; the credits come back on arrival.
        assert gate.emit(channel, item()) is False
        assert channel.batches_shipped == 1
        assert not gate._buffer and channel.outstanding == 8

    def test_partitioner_rebuilt_on_set_channels(self, setup):
        sim, producer, consumer, channel = setup
        gate = gate_for(setup, InstantFlush())
        other = RuntimeChannel(sim, consumer, channel.network, "P->C")
        gate.set_channels([channel, other])
        assert gate.partitioner.fanout == 2
        picks = {gate.channels[gate.partitioner.select("x")[0]] for _ in range(4)}
        assert picks == {channel, other}
