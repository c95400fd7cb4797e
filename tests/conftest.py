"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.engine.batching import InstantFlush
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.items import DataItem
from repro.engine.task import OutputGate, RuntimeTask
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import Deterministic, Gamma
from repro.workloads.rates import ConstantRate


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter; fails the test on a non-zero exit.

    For what is per process: which modules are loaded, import order.
    ``src/`` and ``tests/`` are importable; ``args`` land in ``sys.argv[1:]``.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    ))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests."""
    return random.Random(12345)


def make_linear_job(
    source_rate: float = 100.0,
    service_mean: float = 0.002,
    service_cv: float = 0.0,
    n_workers: int = 2,
    n_sinks: int = 1,
    jitter: str = "deterministic",
    worker_min: int = None,
    worker_max: int = None,
) -> JobGraph:
    """Source -> Worker -> Sink with configurable rates and service."""
    graph = JobGraph("linear")
    if service_cv > 0:
        dist = Gamma(service_mean, service_cv)
    else:
        dist = Deterministic(service_mean)
    source = graph.add_vertex(
        "Source", lambda: SourceUDF(lambda now, rng: rng.random()), parallelism=1
    )
    worker = graph.add_vertex(
        "Worker",
        lambda: MapUDF(lambda x: x, service_dist=dist),
        parallelism=n_workers,
        min_parallelism=worker_min if worker_min is not None else n_workers,
        max_parallelism=worker_max if worker_max is not None else n_workers,
    )
    sink = graph.add_vertex("Sink", lambda: SinkUDF(), parallelism=n_sinks)
    graph.connect(source, worker)
    graph.connect(worker, sink)
    source.rate_profile = ConstantRate(source_rate, jitter=jitter)
    return graph


def run_linear(
    config: EngineConfig = None,
    duration: float = 10.0,
    **job_kwargs,
):
    """Build + run a linear job; returns its ``DeployedJob`` handle."""
    engine = StreamProcessingEngine(config or EngineConfig())
    job = engine.submit(make_linear_job(**job_kwargs))
    engine.run(duration)
    return job


def fed_consumer(queue_capacity: int, channels: int = 1, channel_capacity: int = 64):
    """A started sink serving one item per second, fed over ``channels`` hops.

    Each hop is an instant-flush output gate and a channel with zero
    transfer time, so items enter through ``RuntimeChannel._arrive`` and
    leave through ``RuntimeTask._start_next`` exactly as in a run. Returns
    ``(sim, consumer, done, feeds)``: ``done`` lists the payloads the sink
    finished, in order, and ``feeds`` holds one ``(gate, channel)`` per hop.
    """
    sim = Simulator()
    network = NetworkModel(base_latency=0.0, per_batch_overhead=0.0, per_item_overhead=0.0)
    done = []
    consumer = RuntimeTask(sim, "C", 0, SinkUDF(done.append, Deterministic(1.0)),
                           random.Random(1), queue_capacity=queue_capacity)
    consumer.start()
    feeds = []
    for index in range(channels):
        producer = RuntimeTask(sim, "P", index, SinkUDF(), random.Random(2))
        channel = RuntimeChannel(sim, consumer, network, "P->C", capacity=channel_capacity)
        consumer.in_channels.append(channel)
        gate = OutputGate(sim, producer, "P->C", "round_robin", InstantFlush(), network)
        gate.set_channels([channel])
        feeds.append((gate, channel))
    return sim, consumer, done, feeds


def put(sim: Simulator, feed, payload) -> None:
    """Emit ``payload`` on ``feed`` and let it arrive (the hop takes no time)."""
    gate, channel = feed
    assert gate.emit(channel, DataItem(payload, sim.now, size=0))
    sim.run(until=sim.now)


def serve(sim: Simulator, seconds: float = 1.0) -> None:
    """Let a :func:`fed_consumer` sink work: one item per second completes."""
    sim.run(until=sim.now + seconds)


class DictKeyedState:
    """Reference keyed state: one ``{key: bytes}`` dict per partition.

    The layout ``repro.engine.state.KeyedState`` had before it became one
    byte count per Zipf rank, kept here to check the rank layout against:
    every event is an :meth:`add`, every repartition rebuilds the dicts,
    and a restore goes key by key. ``digest(key)`` places a key in
    partition ``digest(key) % parallelism``.
    """

    def __init__(self, parallelism: int, digest) -> None:
        self.parallelism = parallelism
        self.digest = digest
        self.partitions = [{} for _ in range(parallelism)]

    def add(self, key, nbytes: int) -> None:
        partition = self.partitions[self.digest(key) % self.parallelism]
        value = partition.get(key, 0) + nbytes
        if value > 0:
            partition[key] = value
        else:
            partition.pop(key, None)

    def items(self) -> dict:
        out = {}
        for partition in self.partitions:
            out.update(partition)
        return out

    @property
    def total_bytes(self) -> int:
        return sum(self.items().values())

    @property
    def key_count(self) -> int:
        return len(self.items())

    def partition_bytes(self) -> list:
        return [sum(partition.values()) for partition in self.partitions]

    def moved_bytes(self, new_parallelism: int) -> int:
        return sum(nbytes for index, partition in enumerate(self.partitions)
                   for key, nbytes in partition.items()
                   if self.digest(key) % new_parallelism != index)

    def repartition(self, new_parallelism: int) -> int:
        moved = self.moved_bytes(new_parallelism)
        content = self.items()
        self.parallelism = new_parallelism
        self.partitions = [{} for _ in range(new_parallelism)]
        for key, nbytes in content.items():
            self.add(key, nbytes)
        return moved

    def snapshot(self) -> dict:
        return self.items()

    def restore_partition(self, index: int, checkpoint: dict) -> int:
        before = sum(self.partitions[index].values())
        self.partitions[index] = {
            key: nbytes for key, nbytes in checkpoint.items()
            if self.digest(key) % self.parallelism == index and nbytes > 0
        }
        return before - sum(self.partitions[index].values())


def rank_partition_bytes(state) -> list:
    """Per-partition byte totals of a rank-indexed ``KeyedState``."""
    totals = [0] * state.parallelism
    for nbytes, digest in zip(state.bytes, state.digests):
        totals[digest % state.parallelism] += nbytes
    return totals


def assert_state_matches(state, reference: DictKeyedState) -> None:
    """``state`` (ranks as keys) holds what ``reference`` holds, placed alike."""
    assert state.parallelism == reference.parallelism
    assert {rank: b for rank, b in enumerate(state.bytes) if b} == reference.items()
    assert state.key_count == reference.key_count
    assert state.total_bytes == reference.total_bytes
    assert rank_partition_bytes(state) == reference.partition_bytes()
