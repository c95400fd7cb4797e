"""Per-channel item conservation: every credit in use is an item somewhere.

A channel's credits in use are ``items_emitted - items_delivered``
(``RuntimeChannel.outstanding``). While the channel is open, that count
equals the items that took a credit and have not entered the consumer's
input queue yet:

* buffered for this channel in its producer's output gate;
* in flight, in this channel's arrival heap entries;
* parked in the channel (``_pending``), waiting for queue space;

and it never exceeds the channel's ``capacity``. The check runs after
every simulated second of the three golden scenarios (the stateful one
fails a migration and crashes a task), of ``repro chaos`` crashing a task
and losing a worker (channels close mid-run), and of a backpressured
chain under each batching mode.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import cli
from repro.engine.batching import AdaptiveDeadlineBatching, FixedSizeBatching, InstantFlush
from repro.engine.channel import RuntimeChannel
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate

#: simulated seconds between two checks
STEP = 1.0


def _open_channels(engine):
    """Every open channel: the scheduler registers each channel it builds
    and unregisters it only once it is closed."""
    return [
        channel
        for job in engine.jobs
        for channels in job.runtime.edge_channels.values()
        for channel in channels
        if not channel.closed
    ]


def check_conservation(engine):
    """Assert the identity on every open channel; returns (checked, with parked items)."""
    in_flight = Counter()
    for entry in engine.sim._heap:
        if len(entry) == 4 and getattr(entry[2], "__func__", None) is RuntimeChannel._arrive:
            in_flight[entry[2].__self__] += len(entry[3][0])
    channels = _open_channels(engine)
    buffered = Counter()
    for producer in {channel.producer for channel in channels}:
        for gate in producer.out_gates:
            for channel, _item in gate._buffer:
                buffered[channel] += 1
    parked = 0
    for channel in channels:
        held = channel.items_emitted - channel.items_delivered
        where = (buffered[channel], in_flight[channel], len(channel._pending))
        assert held == sum(where), (engine.now, channel, held, where)
        assert held <= channel.capacity, (engine.now, channel, held)
        assert channel.outstanding == held
        parked += bool(channel._pending)
    return len(channels), parked


@pytest.fixture
def checked(monkeypatch):
    """Run every engine in ``STEP`` steps, checking after each; returns the tally."""
    tally = Counter()
    original = StreamProcessingEngine.run

    def run(self, duration):
        end = self.sim.now + duration
        while self.sim.now < end:
            original(self, min(STEP, end - self.sim.now))
            channels, parked = check_conservation(self)
            tally["steps"] += 1
            tally["channels"] += channels
            tally["parked"] += parked

    monkeypatch.setattr(StreamProcessingEngine, "run", run)
    return tally


@pytest.mark.parametrize("module", ["golden_scenario", "golden_macro_scenario",
                                    "golden_stateful_scenario"])
def test_golden_scenarios(module, checked, tmp_path):
    __import__(module).run_scenario(str(tmp_path))
    assert checked["steps"] >= 40 and checked["channels"] > checked["steps"]


@pytest.mark.parametrize("faults", [
    [],  # the default plan: a task crash and restart, a measurement dropout
    ["--worker-loss-at", "20", "--crash-at", "-1", "--dropout-at", "-1"],
], ids=["task-crash", "worker-loss"])
def test_chaos(faults, checked, capsys):
    assert cli.main(["chaos", "--duration", "60", *faults]) == 0
    capsys.readouterr()
    assert checked["steps"] == 60


def _backpressured_chain(batching):
    """Src -> A -> B -> Snk with B saturated: B's queue fills, A and Src block."""
    graph = JobGraph("backpressured")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: rng.random()))
    src.rate_profile = ConstantRate(600.0)
    a = graph.add_vertex("A", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.001, 0.5)),
                         parallelism=2)
    b = graph.add_vertex("B", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.005, 0.7)),
                         parallelism=2)
    snk = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, a)
    graph.connect(a, b)
    graph.connect(b, snk)
    engine = StreamProcessingEngine(
        EngineConfig(batching=batching, queue_capacity=4, channel_capacity=8, seed=5)
    )
    engine.submit(graph)
    return engine


@pytest.mark.parametrize("batching", [
    InstantFlush(), FixedSizeBatching(16 * 1024), AdaptiveDeadlineBatching(),
], ids=["instant", "fixed", "adaptive"])
def test_backpressured_chain(batching, checked):
    engine = _backpressured_chain(batching)
    engine.run(20.0)
    assert checked["steps"] == 20
    # the credit limit binds: some channel has items parked at most steps
    assert checked["parked"] >= checked["steps"]
