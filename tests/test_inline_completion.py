"""Zero-service completions of gate-less tasks that are not events.

A task with no output gates whose item takes exactly zero service
finishes it inside the callback that popped it, when nothing else is due
at ``now`` (DESIGN.md, "Which completions are not events"). These tests
pin what must not change: FIFO order and timestamps, the order seen by
callbacks due at the same instant, and that any task *with* output gates
keeps its completion event.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.batching import InstantFlush
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.items import DataItem
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.kernel import SimulationError, Simulator
from repro.simulation.randomness import Deterministic
from repro.workloads.rates import ConstantRate


def wired_sink(queue_capacity=256, channel_capacity=256, udf=None):
    """A started zero-service sink fed by one channel."""
    sim = Simulator()
    network = NetworkModel(base_latency=0.001, per_batch_overhead=0.0, per_item_overhead=0.0)
    sink = RuntimeTask(sim, "Snk", 0, udf or SinkUDF(), random.Random(1),
                       queue_capacity=queue_capacity)
    sink.start()
    channel = RuntimeChannel(sim, sink, network, "P->Snk", capacity=channel_capacity)
    sink.in_channels.append(channel)
    return sim, sink, channel


def ship(channel, payloads):
    items = [DataItem(p, 0.0) for p in payloads]
    for item in items:
        assert channel.accept(item)
    channel.ship(items, 256 * len(items))


class TestInlineCompletion:
    def test_resumed_sink_drains_a_long_queue_in_a_loop(self):
        """No recursion per queued item: 5 000 items on resume, FIFO, one stamp."""
        n = 5000
        sim, sink, channel = wired_sink(queue_capacity=100_000, channel_capacity=n)
        seen = []
        sink.process_probe = lambda elapsed, payload: seen.append((sim.now, payload))
        sink.pause(1.0)
        ship(channel, range(n))
        sim.run(until=0.5)
        assert len(sink.input_queue) == n and seen == []
        sim.run()
        assert seen == [(1.0, i) for i in range(n)]
        assert sink.items_processed == n
        # the arrival and the resume kick; no completion event at all
        assert sim.fired_events == 2

    def test_callback_due_at_the_arrival_instant_sees_the_item_unfinished(self):
        """An event already due at ``now`` must run before the completion."""
        sim, sink, channel = wired_sink()
        ship(channel, ["x"])
        arrival = sim.now + channel.network.transfer_time(256)
        observed = []
        sim.schedule_at(arrival, lambda: observed.append(sink.items_processed))
        sim.run()
        assert observed == [0]
        assert sink.items_processed == 1
        # the completion stayed an event because the callback was due
        assert sim.fired_events == 3

    def test_nothing_due_completes_inside_the_arrival(self):
        sim, sink, channel = wired_sink()
        ship(channel, ["x", "y"])
        sim.run()
        assert sink.items_processed == 2
        assert sim.fired_events == 1

    def test_nan_service_time_names_the_task(self):
        class NaNSink(SinkUDF):
            def service_time(self, payload, rng):
                return float("nan")

        sim, sink, channel = wired_sink(udf=NaNSink())
        ship(channel, ["x"])
        with pytest.raises(SimulationError, match=r"Snk\[0\].*nan"):
            sim.run()
        assert sim.pending_events == 0


def _zero_service_chain(blocked_sinks):
    """Src -> Map(0 s) -> Snk(0 s); returns (fired events, sink items, samples)."""
    graph = JobGraph("zero")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))
    src.rate_profile = ConstantRate(200.0, jitter="deterministic")
    mapper = graph.add_vertex(
        "Map", lambda: MapUDF(lambda x: x, service_dist=Deterministic(0.0)))
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, mapper)
    graph.connect(mapper, sink)
    engine = StreamProcessingEngine(EngineConfig(seed=5))
    samples = []
    engine.add_vertex_probe("Snk", lambda latency, payload: samples.append(latency))
    job = engine.submit(graph)
    sinks = job.runtime.vertex("Snk").tasks
    if blocked_sinks:
        # A gate with no channels emits nothing, but a task that has one
        # always pushes its completion event: the reference run.
        for task in sinks:
            task.out_gates.append(
                OutputGate(engine.sim, task, "none", "round_robin", InstantFlush(),
                           engine.network))
    engine.run(10.0)
    return engine.sim.fired_events, sum(t.items_processed for t in sinks), samples


def test_only_the_gateless_sink_skips_its_completion_event():
    """A zero-service map keeps its event; the sink drops exactly one per item."""
    fired, items, samples = _zero_service_chain(blocked_sinks=False)
    ref_fired, ref_items, ref_samples = _zero_service_chain(blocked_sinks=True)
    assert items == ref_items > 1000
    assert samples == ref_samples
    assert fired == ref_fired - items
