"""Sample-path oracle: the plain engine is Lindley's recursion, item by item.

With no base latency, no shipping overheads, queues and credits that never
fill, and instant flush, every task is a FIFO single server and every hop
a fixed delay. An item's sink latency is then fully determined by the
source's emission times and each task's service draws: at each station
an item starts at ``max(arrival, previous departure)`` (Lindley,
``W[n+1] = max(0, W[n] + S[n] - A[n+1])``) and departs one service draw
later, and it reaches the next station ``transfer_time(item_size)`` after
that. The reference below uses no kernel, channel or task; the test feeds
it the emission times and draws the engine actually used, recorded by
wrapping the source generator and ``UDF.make_service_sampler``, and
requires every sink sample to agree to 1e-12 s. A stage whose UDF
overrides ``service_time`` is held to the same bound: its sampler is the
per-item call, so the recording sees exactly what the task drew.
"""

from __future__ import annotations

import pytest

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import UDF, MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.randomness import Deterministic, Exponential, Gamma
from repro.workloads.rates import ConstantRate

RATE = 200.0
MEAN_SERVICE = 0.004
DURATION = 30.0


# ----------------------------------------------------------------------
# the reference: a tandem of FIFO single servers, no simulator
# ----------------------------------------------------------------------


def _serve(arrivals, draws):
    """One FIFO single server: ``(arrival, created)`` in arrival order ->
    ``(departure, created)`` in departure order. Items without a draw never
    started service and are dropped (they are the tail of the queue)."""
    departures = []
    free = 0.0
    for (arrival, created), service in zip(arrivals, draws):
        start = arrival if arrival > free else free
        free = start + service
        departures.append((free, created))
    return departures


def lindley_sink_samples(emitted, first_stage, later_stages, hop, until):
    """Sink ``(time, latency)`` samples of a round-robin fan-out and tandem.

    ``emitted`` are the source's emission times in order; item *n* goes to
    ``first_stage[n % p]`` (each entry is one task's service draws in
    service order). Every later stage, the sink last, is one task given by
    its draws. Streams merging into one station are served in order of
    arrival time (a stable sort: exact ties keep first-stage task order).
    Only departures at or before ``until`` are samples.
    """
    p = len(first_stage)
    stream = []
    for index, draws in enumerate(first_stage):
        stream.extend(_serve([(t + hop, t) for t in emitted[index::p]], draws))
    for draws in later_stages:
        stream.sort(key=lambda job: job[0])
        stream = _serve([(departure + hop, created) for departure, created in stream], draws)
    return [(departure, departure - created) for departure, created in stream
            if departure <= until]


# ----------------------------------------------------------------------
# the engine under test, with its inputs recorded
# ----------------------------------------------------------------------


@pytest.fixture
def recorded_draws(monkeypatch):
    """UDF instance id -> the service times its task drew, in draw order."""
    draws = {}
    original = UDF.make_service_sampler

    def recording_sampler(self, rng, *args, **kwargs):
        sample = original(self, rng, *args, **kwargs)
        taken = draws[id(self)] = []

        def record(payload):
            value = sample(payload)
            taken.append(value)
            return value

        return record

    monkeypatch.setattr(UDF, "make_service_sampler", recording_sampler)
    return draws


class _PayloadPricedMap(MapUDF):
    """A stage that prices items itself, by the emission time it carries."""

    def service_time(self, payload, rng):
        return self.service_dist.sample(rng) * (0.5 + (payload * 10.0) % 1.0)


def run_engine(first_parallelism, depth, dist, seed, stage=MapUDF):
    emitted = []
    graph = JobGraph("lindley")
    previous = graph.add_vertex(
        "source", lambda: SourceUDF(lambda now, rng: emitted.append(now) or now)
    )
    previous.rate_profile = ConstantRate(RATE)
    stages = []
    for index in range(depth):
        vertex = graph.add_vertex(
            f"s{index}", lambda: stage(lambda x: x, service_dist=dist),
            parallelism=first_parallelism if index == 0 else 1,
        )
        graph.connect(previous, vertex)
        stages.append(vertex.name)
        previous = vertex
    graph.connect(previous, graph.add_vertex("sink", lambda: SinkUDF()))
    # station_saturated's engine settings
    engine = StreamProcessingEngine(EngineConfig(
        base_latency=0.0, per_batch_overhead=0.0, per_item_overhead=0.0,
        queue_capacity=100_000, channel_capacity=100_000, seed=seed,
    ))
    job = engine.submit(graph)
    engine.run(DURATION)
    (source,) = job.runtime.vertex("source").tasks
    first = [channel.consumer for channel in source.out_gates[0].channels]
    later = [job.runtime.vertex(name).tasks[0] for name in stages[1:] + ["sink"]]
    return job, engine, emitted, first, later


CASES = [
    (p, depth, dist)
    for p in (1, 2, 4)
    for depth in (1, 2, 3)
    for dist in ("exponential", "gamma", "deterministic")
]
DISTS = {
    "exponential": Exponential(MEAN_SERVICE),
    "gamma": Gamma(MEAN_SERVICE, 0.7),
    "deterministic": Deterministic(MEAN_SERVICE),
}


def _assert_lindley(run, recorded_draws):
    job, engine, emitted, first, later = run
    engine_samples = list(job.drain_sink_samples("sink"))
    reference = lindley_sink_samples(
        emitted,
        [recorded_draws[id(task.udf)] for task in first],
        [recorded_draws[id(task.udf)] for task in later],
        hop=engine.network.transfer_time(256),
        until=engine.now,
    )
    # ~0.8 utilization at the busiest station: real queues, thousands of items
    assert len(engine_samples) > 0.9 * RATE * DURATION
    assert len(engine_samples) == len(reference)
    worst = max(
        max(abs(t - rt), abs(lat - rlat))
        for (t, lat), (rt, rlat) in zip(engine_samples, reference)
    )
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("p, depth, dist", CASES, ids=[f"p{p}-depth{d}-{s}" for p, d, s in CASES])
def test_every_sink_sample_is_lindleys(p, depth, dist, recorded_draws):
    _assert_lindley(run_engine(p, depth, DISTS[dist], seed=11 + p + depth), recorded_draws)


def test_a_udf_pricing_its_own_items_is_lindleys(recorded_draws):
    _assert_lindley(
        run_engine(2, 2, DISTS["gamma"], seed=29, stage=_PayloadPricedMap), recorded_draws
    )
