"""Unit tests: runtime-graph bookkeeping, engine presets, count windows."""

import pytest

from repro.engine.batching import (
    AdaptiveDeadlineBatching,
    FixedSizeBatching,
    InstantFlush,
)
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.operators import CountWindowUDF
from repro.engine.runtime import RuntimeGraph
from repro.engine.udf import MapUDF

from conftest import make_linear_job, run_linear


class TestEngineConfigPresets:
    def test_storm_like(self):
        config = EngineConfig.storm_like(seed=99)
        assert isinstance(config.batching, InstantFlush)
        assert config.seed == 99
        assert config.per_batch_overhead > EngineConfig().per_batch_overhead

    def test_nephele_instant_flush(self):
        config = EngineConfig.nephele_instant_flush()
        assert isinstance(config.batching, InstantFlush)
        assert not config.elastic

    def test_nephele_fixed_buffer(self):
        config = EngineConfig.nephele_fixed_buffer(8 * 1024)
        assert isinstance(config.batching, FixedSizeBatching)
        assert config.batching.buffer_bytes == 8 * 1024

    def test_nephele_adaptive_elastic(self):
        config = EngineConfig.nephele_adaptive(elastic=True, rho_max=0.95)
        assert isinstance(config.batching, AdaptiveDeadlineBatching)
        assert config.elastic
        assert config.rho_max == 0.95

    def test_overrides_reach_engine(self):
        config = EngineConfig.nephele_adaptive(queue_capacity=42)
        engine = StreamProcessingEngine(config)
        job = engine.submit(make_linear_job())
        worker = job.runtime.vertex("Worker").tasks[0]
        assert worker.input_queue.capacity == 42

    def test_paper_defaults(self):
        config = EngineConfig()
        assert config.measurement_interval == 1.0
        assert config.adjustment_interval == 5.0
        assert config.w_fraction == 0.2
        assert config.batch_fraction == 0.8
        assert config.inactivity_intervals == 2
        assert config.worker_pool == 130
        assert config.slots_per_worker == 4


class TestRuntimeGraph:
    def make(self):
        graph = make_linear_job(n_workers=3)
        return graph, RuntimeGraph(graph)

    def test_vertices_mirrored(self):
        graph, runtime = self.make()
        assert set(runtime.vertices) == set(graph.vertices)
        assert runtime.vertex("Worker").job_vertex is graph.vertex("Worker")

    def test_edge_registry_initialized(self):
        _, runtime = self.make()
        assert set(runtime.edge_channels) == {"Source->Worker", "Worker->Sink"}

    def test_parallelism_of_empty_vertex_is_zero(self):
        _, runtime = self.make()
        assert runtime.parallelism("Worker") == 0
        assert runtime.total_parallelism() == 0

    def test_subtask_indices_monotone(self):
        _, runtime = self.make()
        rv = runtime.vertex("Worker")
        assert [rv.next_subtask_index() for _ in range(3)] == [0, 1, 2]

    def test_live_engine_registry_consistent(self):
        job = run_linear(duration=3.0, n_workers=3)
        runtime = job.runtime
        assert runtime.total_parallelism() == 5
        assert len(runtime.all_tasks()) == 5
        assert len(runtime.channels_of_edge("Source->Worker")) == 3
        for channel in runtime.channels_of_edge("Source->Worker"):
            assert not channel.closed


class TestCountWindow:
    def make(self, size=3):
        return CountWindowUDF(
            size,
            create=list,
            add=lambda acc, x: acc + [x],
            finalize=lambda acc: [tuple(acc)],
        )

    def test_emits_every_n_items(self):
        udf = self.make(3)
        assert list(udf.process(1)) == []
        assert list(udf.process(2)) == []
        assert list(udf.process(3)) == [(1, 2, 3)]
        assert list(udf.process(4)) == []

    def test_flush_partial(self):
        udf = self.make(3)
        udf.process(1)
        assert udf.flush_partial() == ((1,),)
        assert udf.flush_partial() == ()

    def test_read_ready_mode(self):
        assert self.make().latency_mode == "RR"
        assert not self.make().is_windowed

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            self.make(0)

    def test_runs_in_engine(self):
        from repro.engine.udf import SinkUDF, SourceUDF
        from repro.graphs.job_graph import JobGraph
        from repro.workloads.rates import ConstantRate

        graph = JobGraph("count")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))
        win = graph.add_vertex(
            "Win",
            lambda: CountWindowUDF(
                10, create=lambda: 0, add=lambda a, x: a + x, finalize=lambda a: [a]
            ),
        )
        collected = []
        sink = graph.add_vertex("Snk", lambda: SinkUDF(on_item=collected.append))
        graph.connect(src, win)
        graph.connect(win, sink)
        src.rate_profile = ConstantRate(100.0, jitter="deterministic")
        engine = StreamProcessingEngine(EngineConfig(seed=1))
        engine.submit(graph)
        engine.run(5.0)
        assert collected
        assert all(value == 10 for value in collected)
