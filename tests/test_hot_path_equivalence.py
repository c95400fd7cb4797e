"""The per-item hot paths: which events they fire, which floats they add.

The source tick, the deadline gate's flush and the keyed-state probe
run their helpers' bodies in place (DESIGN.md, "What an item costs on
each path"). These tests pin what that must not change:

* the event count, derived analytically per item for each output-gate
  mode and for a stateful job — a later change that elides an event
  updates these numbers on purpose;
* each inlined formula against the method it replaces, compared with
  ``==``: the shipping overhead a flush charges, and the key and
  placement a sampled state event lands on.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.builder import PipelineBuilder
from repro.engine.batching import AdaptiveDeadlineBatching, FixedSizeBatching, InstantFlush
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.items import DataItem
from repro.engine.state import KeyedState, StatefulVertexSpec, StateManager, stable_key_hash
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import Deterministic
from repro.workloads.keys import ZipfKeySampler
from repro.workloads.rates import ConstantRate

#: ten items per simulated second, evenly spaced: every batch holds one
#: item and the last one is delivered long before the next tick is due
RATE = 10.0
HORIZON = 10.05
ITEMS = 100
#: measurement ticks at 1..10 s plus adjustment ticks at 5 s and 10 s
ENGINE_PERIODIC = 10 + 2


def _chain(batching):
    """Src -> Map(1 ms) -> Snk(0 s): (fired events, items at the sink)."""
    graph = JobGraph("chain")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))
    src.rate_profile = ConstantRate(RATE, jitter="deterministic")
    mapper = graph.add_vertex(
        "Map", lambda: MapUDF(lambda x: x, service_dist=Deterministic(0.001)))
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, mapper)
    graph.connect(mapper, sink)
    engine = StreamProcessingEngine(EngineConfig(seed=1, batching=batching))
    job = engine.submit(graph)
    engine.run(HORIZON)
    return engine.sim.fired_events, sum(t.items_processed for t in job.runtime.vertex("Snk").tasks)


class TestEventsPerItem:
    """ticks + flush timers + arrivals + non-inline completions + periodic."""

    # per item: the source tick, two arrivals and the map's completion;
    # the zero-service sink finishes inside its arrival
    PLAIN = 1 + 2 + 1

    def test_instant_flush(self):
        assert _chain(InstantFlush()) == (ITEMS * self.PLAIN + ENGINE_PERIODIC, ITEMS)

    def test_fixed_size_batching_ships_on_the_emit(self):
        # a one-byte buffer fills with every item: a flush but no timer
        assert _chain(FixedSizeBatching(1)) == (ITEMS * self.PLAIN + ENGINE_PERIODIC, ITEMS)

    def test_deadline_batching_adds_one_timer_per_gate(self):
        # the Src and Map gates each arm one flush timer per item: 6 events
        fired, items = _chain(AdaptiveDeadlineBatching(0.001))
        assert (fired, items) == (ITEMS * (self.PLAIN + 2) + ENGINE_PERIODIC, ITEMS)

    def test_stateful_job(self):
        builder = (
            PipelineBuilder("stateful-events")
            .source(lambda now, rng: rng.random(),
                    rate=ConstantRate(RATE, jitter="deterministic"))
            .map("worker", lambda x: x, service=Deterministic(0.001))
            .sink()
            .stateful("worker")
        )
        engine = StreamProcessingEngine(EngineConfig(seed=1, checkpoint_interval=2.0))
        job = engine.submit(builder.build())
        engine.run(HORIZON)
        workers = job.runtime.vertex("worker").tasks
        assert len(workers) == 1
        assert job.state_manager.checkpoints == 5
        # each checkpoint fires once and pauses the one worker, whose
        # resume kick is one more event; the probe itself fires none
        periodic = ENGINE_PERIODIC + 5 * (1 + len(workers))
        sink_items = sum(t.items_processed for t in job.runtime.vertex("sink").tasks)
        assert sink_items == ITEMS
        assert engine.sim.fired_events == ITEMS * self.PLAIN + periodic


# ----------------------------------------------------------------------
# inlined formulas
# ----------------------------------------------------------------------

NETWORK = NetworkModel(base_latency=0.001, per_batch_overhead=3.7e-5, per_item_overhead=1.3e-6)
SIZE = 256


def _gate(strategy, fanout=2):
    sim = Simulator()
    producer = RuntimeTask(sim, "P", 0, MapUDF(lambda x: x), random.Random(1))
    consumers = [RuntimeTask(sim, "C", i, SinkUDF(), random.Random(1)) for i in range(fanout)]
    gate = OutputGate(sim, producer, "P->C", "round_robin", strategy, NETWORK)
    channels = []
    for consumer in consumers:
        channel = RuntimeChannel(sim, consumer, NETWORK, "P->C", capacity=64)
        channel.producer = producer
        channels.append(channel)
    gate.set_channels(channels)
    return sim, producer, gate, channels, consumers


@pytest.mark.parametrize("kind", ["fixed", "deadline", "deadline-timer"])
def test_a_flush_charges_exactly_the_shipping_overhead(kind):
    """busy_time is the left-to-right sum of shipping_overhead(n)."""
    sizes = (1, 2, 7)
    expected = 0.0
    for n in sizes:
        if kind == "fixed":
            strategy = FixedSizeBatching(n * SIZE)
        elif kind == "deadline":
            strategy = AdaptiveDeadlineBatching(0.5, buffer_bytes=n * SIZE)
        else:  # the timer flushes: buffer never fills
            strategy = AdaptiveDeadlineBatching(0.01, buffer_bytes=10 ** 6)
        sim, producer, gate, channels, consumers = _gate(strategy)
        producer.busy_time = expected
        payloads = list(range(n))
        for i in payloads:
            assert gate.emit(channels[i % 2], DataItem(i, 0.0, SIZE))
        if kind == "deadline-timer":
            assert gate.flushes == 0
        sim.run()
        expected = expected + NETWORK.shipping_overhead(n)
        assert gate.flushes == 1
        assert producer.busy_time == expected
        assert producer._overhead_debt == NETWORK.shipping_overhead(n)
        # one sub-batch per channel, items in emit order
        assert [c.batches_shipped for c in channels] == [1, min(1, n - 1)]
        delivered = [[item.payload for item, _ in c.input_queue._items] for c in consumers]
        assert delivered == [payloads[0::2], payloads[1::2]]


def _manager(spec, parallelism, seed=7):
    vertex = SimpleNamespace(target_parallelism=parallelism,
                             job_vertex=SimpleNamespace(parallelism=parallelism))
    runtime = SimpleNamespace(vertices={"v": vertex})
    streams = SimpleNamespace(get=lambda name: random.Random(seed))
    return StateManager(Simulator(), runtime, {"v": spec}, streams), vertex


def test_each_rank_carries_its_key_and_placement_hash():
    spec = StatefulVertexSpec(n_keys=300)
    manager, _ = _manager(spec, 3)
    ranks = manager._vertices["v"].rank_keys
    assert len(ranks) == 300
    for r, entry in enumerate(ranks):
        assert entry == (f"k{r:04d}", stable_key_hash(f"k{r:04d}"))


@pytest.mark.parametrize("p_from,p_to", [(3, 5), (4, 1)])
def test_probe_events_build_what_keyed_state_add_builds(p_from, p_to):
    spec = StatefulVertexSpec(n_keys=64, zipf_s=1.1, bytes_per_event=48)
    manager, vertex = _manager(spec, p_from)
    reference = KeyedState("v", p_from)
    sampler, rng = ZipfKeySampler(64, 1.1), random.Random(7)
    for _ in range(2000):
        manager.on_event("v")
        reference.add(f"k{sampler.sample_index(rng):04d}", 48)
    state = manager._vertices["v"].state
    assert state._partitions == reference._partitions
    vertex.target_parallelism = p_to
    moved = manager.sync_parallelism("v")
    assert moved == reference.repartition(p_to)
    for _ in range(500):
        manager.on_event("v")
        reference.add(f"k{sampler.sample_index(rng):04d}", 48)
    assert state.parallelism == p_to
    assert state._partitions == reference._partitions
