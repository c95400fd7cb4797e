"""Stress tests and engine-wide invariants under randomized scenarios.

These tests subject the engine to adversarial conditions — scaling storms,
deep overload, random topologies — and check the invariants that must
hold regardless: item conservation, bounded queues, no deadlocks, slot
accounting consistency.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import FilterUDF, MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate

from conftest import make_linear_job


def accounted_items(job, source_vertex="Source"):
    """(emitted, accounted-for) item counts across the whole graph."""
    emitted = sum(t.items_emitted for t in job.runtime.vertex(source_vertex).tasks)
    consumed = 0
    queued = 0
    in_flight = 0
    buffered = 0
    busy = 0
    for task in job.runtime.all_tasks():
        if not task.out_gates:  # sink
            consumed += task.items_processed
        queued += len(task.input_queue)
        in_flight += sum(c.outstanding for c in task.in_channels)
        buffered += sum(len(g._buffer) for g in task.out_gates)
        if task._busy:
            busy += 1
    return emitted, consumed, queued, in_flight, buffered, busy


class TestScalingStorm:
    def run_storm(self, seed, steps=25):
        """Random scale-up/down actions every second under steady load."""
        engine = StreamProcessingEngine(EngineConfig(seed=seed, startup_delay=0.3))
        graph = make_linear_job(
            source_rate=300.0, service_mean=0.004, n_workers=4,
            worker_min=1, worker_max=24,
        )
        job = engine.submit(graph)
        rng = random.Random(seed)
        for _ in range(steps):
            engine.run(1.0)
            target = rng.randint(1, 24)
            job.scheduler.set_parallelism("Worker", target)
        engine.run(10.0)  # let everything settle and drain
        return job

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_storm_conserves_items_and_terminates(self, seed):
        job = self.run_storm(seed)
        sinks = [t.udf for t in job.runtime.vertex("Sink").tasks]
        consumed = sum(u.consumed for u in sinks)
        emitted = sum(
            t.items_processed for t in job.runtime.vertex("Source").tasks
        )
        # Residual items may sit in queues/buffers; nothing may vanish
        # beyond that, and throughput must not collapse.
        assert consumed >= emitted - 500
        assert consumed > 0.8 * 300.0 * 25

    @pytest.mark.parametrize("seed", [1, 2])
    def test_storm_leaves_consistent_slot_accounting(self, seed):
        job = self.run_storm(seed)
        live = [t for t in job.runtime.all_tasks() if t.state != "stopped"]
        assert job.engine.resources.active_tasks == len(live)
        job.engine.stop()
        assert job.engine.resources.active_tasks == 0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_storm_respects_bounds(self, seed):
        job = self.run_storm(seed)
        assert 1 <= job.parallelism("Worker") <= 24


class TestDeepOverloadRecovery:
    def test_recovery_after_sustained_overload(self):
        from repro.workloads.rates import PiecewiseRate

        graph = JobGraph("overload")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
        worker = graph.add_vertex(
            "W", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.02, 0.5))
        )
        sink = graph.add_vertex("Snk", lambda: SinkUDF())
        graph.connect(src, worker)
        graph.connect(worker, sink)
        src.rate_profile = PiecewiseRate([(0.0, 2000.0), (30.0, 10.0)])
        config = EngineConfig(queue_capacity=16, channel_capacity=4, seed=9)
        engine = StreamProcessingEngine(config)
        job = engine.submit(graph)
        engine.run(60.0)
        # After the overload the pipeline keeps flowing at the light rate.
        vs = job.last_summary.vertex("W")
        assert vs is not None
        assert vs.utilization < 0.8
        emitted = sum(t.items_processed for t in job.runtime.vertex("Src").tasks)
        sink_task = job.runtime.vertex("Snk").tasks[0]
        assert sink_task.udf.consumed >= emitted - 100

    def test_tiny_buffers_never_deadlock(self):
        config = EngineConfig(queue_capacity=1, channel_capacity=1, seed=4)
        engine = StreamProcessingEngine(config)
        graph = make_linear_job(source_rate=200.0, service_mean=0.002, n_workers=2)
        job = engine.submit(graph)
        engine.run(20.0)
        sinks = [t.udf for t in job.runtime.vertex("Sink").tasks]
        assert sum(u.consumed for u in sinks) > 1000


class TestRandomTopologies:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        width=st.integers(min_value=1, max_value=3),
        depth=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_layered_dags_flow(self, seed, width, depth):
        """Any layered DAG of maps/filters moves items source -> sink."""
        rng = random.Random(seed)
        graph = JobGraph(f"dag{seed}")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, r: r.random()))
        previous = [src]
        for level in range(depth):
            layer = []
            for i in range(width):
                if rng.random() < 0.3:
                    factory = lambda: FilterUDF(lambda x: True)
                else:
                    factory = lambda: MapUDF(lambda x: x)
                vertex = graph.add_vertex(
                    f"l{level}n{i}", factory, parallelism=rng.randint(1, 3)
                )
                layer.append(vertex)
            for vertex in layer:
                graph.connect(rng.choice(previous), vertex)
            previous = layer
        sink = graph.add_vertex("Snk", lambda: SinkUDF())
        for vertex in previous:
            graph.connect(vertex, sink)
        src.rate_profile = ConstantRate(100.0, jitter="deterministic")
        engine = StreamProcessingEngine(EngineConfig(seed=seed))
        job = engine.submit(graph)
        engine.run(5.0)
        sink_tasks = job.runtime.vertex("Snk").tasks
        assert sum(t.items_processed for t in sink_tasks) > 0


class TestConservationInvariant:
    @pytest.mark.parametrize("rate,workers", [(100.0, 1), (400.0, 3), (800.0, 6)])
    def test_every_emitted_item_is_somewhere(self, rate, workers):
        engine = StreamProcessingEngine(EngineConfig(seed=8))
        graph = make_linear_job(source_rate=rate, service_mean=0.004, n_workers=workers)
        job = engine.submit(graph)
        engine.run(12.0)
        emitted, consumed, queued, in_flight, buffered, busy = accounted_items(job)
        worker_processed = sum(
            t.items_processed for t in job.runtime.vertex("Worker").tasks
        )
        # Source-emitted items are either at the worker stage (queued,
        # in flight, being served) or already processed by it.
        stage_one = worker_processed + busy
        assert emitted <= consumed + queued + in_flight + buffered + stage_one + 2
        assert worker_processed <= emitted
