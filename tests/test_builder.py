"""Tests for the fluent pipeline builder."""

import pytest

from repro.builder import BuiltPipeline, PipelineBuilder
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate


def simple_pipeline(bound=None, parallelism=(2, 1, 8)):
    builder = (
        PipelineBuilder("test")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(100.0))
        .map("double", lambda x: 2 * x, service=Gamma(0.002, 0.5), parallelism=parallelism)
        .sink()
    )
    if bound is not None:
        builder.constrain(bound)
    return builder.build()


class TestBuilderStructure:
    def test_linear_chain(self):
        built = simple_pipeline()
        assert [v.name for v in built.graph.topological_order()] == [
            "source", "double", "sink",
        ]

    def test_parallelism_tuple(self):
        built = simple_pipeline(parallelism=(3, 1, 10))
        vertex = built.graph.vertex("double")
        assert vertex.parallelism == 3
        assert vertex.min_parallelism == 1
        assert vertex.max_parallelism == 10
        assert vertex.elastic

    def test_parallelism_int_is_fixed(self):
        built = simple_pipeline(parallelism=4)
        assert not built.graph.vertex("double").elastic

    def test_filter_and_flat_map(self):
        built = (
            PipelineBuilder("t")
            .source(lambda now, rng: 1, rate=ConstantRate(10.0))
            .filter("f", lambda x: x > 0)
            .flat_map("fm", lambda x: [x, x])
            .sink()
            .build()
        )
        assert set(built.graph.vertices) == {"source", "f", "fm", "sink"}

    def test_key_by_sets_pattern(self):
        built = (
            PipelineBuilder("t")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(10.0))
            .key_by(lambda x: int(x * 10))
            .map("m", lambda x: x)
            .sink()
            .build()
        )
        assert built.graph.edge_between("source", "m").pattern == "key"
        # pattern resets for the next edge
        assert built.graph.edge_between("m", "sink").pattern == "round_robin"

    def test_broadcast_sets_pattern(self):
        built = (
            PipelineBuilder("t")
            .source(lambda now, rng: 1, rate=ConstantRate(10.0))
            .broadcast()
            .map("m", lambda x: x, parallelism=3)
            .sink()
            .build()
        )
        assert built.graph.edge_between("source", "m").pattern == "broadcast"

    def test_constraint_shape(self):
        built = simple_pipeline(bound=0.030)
        (constraint,) = built.constraints
        assert constraint.bound == 0.030
        assert constraint.sequence.vertex_names() == ["double"]
        assert constraint.sequence.edge_names() == ["source->double", "double->sink"]


class TestBuilderErrors:
    def test_two_sources_rejected(self):
        builder = PipelineBuilder("t").source(lambda n, r: 1, ConstantRate(1.0))
        with pytest.raises(ValueError):
            builder.source(lambda n, r: 1, ConstantRate(1.0))

    def test_stage_before_source_rejected(self):
        with pytest.raises(ValueError):
            PipelineBuilder("t").map("m", lambda x: x)

    def test_stage_after_sink_rejected(self):
        builder = (
            PipelineBuilder("t")
            .source(lambda n, r: 1, ConstantRate(1.0))
            .map("m", lambda x: x)
            .sink()
        )
        with pytest.raises(ValueError):
            builder.map("late", lambda x: x)

    def test_build_without_sink_rejected(self):
        builder = PipelineBuilder("t").source(lambda n, r: 1, ConstantRate(1.0))
        with pytest.raises(ValueError):
            builder.build()

    def test_constrain_without_middle_stage_rejected(self):
        builder = (
            PipelineBuilder("t").source(lambda n, r: 1, ConstantRate(1.0)).sink()
        )
        with pytest.raises(ValueError):
            builder.constrain(0.01)

    def test_constrain_before_sink_rejected(self):
        builder = (
            PipelineBuilder("t")
            .source(lambda n, r: 1, ConstantRate(1.0))
            .map("m", lambda x: x)
        )
        with pytest.raises(ValueError):
            builder.constrain(0.01)


class TestBuilderEndToEnd:
    def test_built_pipeline_runs_elastically(self):
        built = simple_pipeline(bound=0.030)
        engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True))
        job = engine.submit(built)
        engine.run(30.0)
        tracker = job.trackers[0]
        assert tracker.intervals_observed > 0
        assert tracker.fulfillment_ratio > 0.5

    def test_sink_callback_sees_payloads(self):
        seen = []
        built = (
            PipelineBuilder("t")
            .source(lambda now, rng: 21, rate=ConstantRate(50.0, jitter="deterministic"))
            .map("double", lambda x: 2 * x)
            .sink(on_item=seen.append)
            .build()
        )
        engine = StreamProcessingEngine(EngineConfig())
        engine.submit(built)
        engine.run(5.0)
        assert seen
        assert all(v == 42 for v in seen)

    def test_doctest_example(self):
        import doctest
        import repro.builder as module

        failures, _ = doctest.testmod(module)
        assert failures == 0
