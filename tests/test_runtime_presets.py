"""Unit tests: runtime-graph bookkeeping, engine presets and config checks."""

import math

import pytest

from repro.engine.batching import (
    AdaptiveDeadlineBatching,
    FixedSizeBatching,
    InstantFlush,
)
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.runtime import RuntimeGraph

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


class TestEngineConfigValidation:
    # Each of these used to run: silently without scaler rounds or
    # tracked intervals, with items stuck, or failing mid-run.
    @pytest.mark.parametrize("name, value", [
        ("adjustment_interval", math.nan),
        ("adjustment_interval", math.inf),
        ("measurement_interval", math.nan),
        ("base_latency", math.nan),
        ("per_item_overhead", math.nan),
        ("qos_managers", 0),
        ("staleness_threshold", math.nan),
        ("checkpoint_interval", 0.0),
        ("startup_delay", -1.0),
    ])
    def test_bad_timing_fails_before_the_first_event(self, name, value):
        with pytest.raises(ValueError, match=f"EngineConfig.{name} "):
            EngineConfig(**{name: value})

    def test_optional_staleness_and_zero_inactivity_stay_valid(self):
        config = EngineConfig(staleness_threshold=None, inactivity_intervals=0)
        assert config.staleness_threshold is None


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

