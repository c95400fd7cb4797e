"""Regression locks on the paper's qualitative results, at test scale.

Each test pins one phenomenon from the paper on a small scenario so
that refactorings cannot silently lose it (the benchmark suite asserts
the same shapes at larger scale).
"""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.batching import FixedSizeBatching, InstantFlush
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate, PiecewiseRate

OVERHEADS = dict(per_batch_overhead=0.0015, per_item_overhead=0.00002)


def saturating_job(rate, n_workers=4, service_mean=0.0025):
    graph = JobGraph("shape")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
    worker = graph.add_vertex(
        "W", lambda: MapUDF(lambda x: x, service_dist=Gamma(service_mean, 0.7)),
        parallelism=n_workers,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    src.rate_profile = ConstantRate(rate)
    return graph


def effective_rate(config, rate, duration=25.0):
    engine = StreamProcessingEngine(config)
    job = engine.submit(saturating_job(rate))
    engine.run(duration)
    emitted = sum(t.items_processed for t in job.runtime.vertex("Src").tasks)
    return emitted / duration


class TestSection3Motivation:
    """Sec. III-C: batching buys effective throughput under saturation."""

    def test_batching_raises_saturated_throughput(self):
        attempted = 2500.0  # capacity without overhead: 4 / 2.5 ms = 1600/s
        instant = effective_rate(
            EngineConfig(batching=InstantFlush(), queue_capacity=64,
                         channel_capacity=8, seed=5, **OVERHEADS),
            attempted,
        )
        batched = effective_rate(
            EngineConfig(batching=FixedSizeBatching(16 * 1024), queue_capacity=64,
                         channel_capacity=8, seed=5, **OVERHEADS),
            attempted,
        )
        # paper: +58 % for 16 KiB over instant flushing
        assert batched > instant * 1.2

    def test_underload_unaffected_by_batching_choice(self):
        light = 300.0
        instant = effective_rate(
            EngineConfig(batching=InstantFlush(), seed=5, **OVERHEADS), light
        )
        batched = effective_rate(
            EngineConfig(batching=FixedSizeBatching(16 * 1024), seed=5, **OVERHEADS),
            light,
        )
        assert instant == pytest.approx(light, rel=0.1)
        assert batched == pytest.approx(light, rel=0.1)


def elastic_job_with(profile, bound, seed=7, p_max=32):
    graph = JobGraph("shape-elastic")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
    worker = graph.add_vertex(
        "W", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.0025, 0.7)),
        parallelism=4, min_parallelism=1, max_parallelism=p_max,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    src.rate_profile = profile
    js = JobSequence.from_names(graph, ["W"], leading_edge=True, trailing_edge=True)
    constraint = LatencyConstraint(js, bound)
    engine = StreamProcessingEngine(
        EngineConfig.nephele_adaptive(elastic=True, seed=seed, **OVERHEADS)
    )
    return engine.submit(graph, [constraint]), constraint


class TestSection5Dynamics:
    """Sec. V-A: the violation spike at a rate jump, then recovery."""

    def test_rate_jump_causes_transient_violation_then_recovery(self):
        profile = PiecewiseRate([(0.0, 100.0), (60.0, 1500.0)])
        job, constraint = elastic_job_with(profile, bound=0.030)
        job.engine.run(180.0)
        history = job.tracker_for(constraint).history
        jump_window = [v for t, _, v in history if 60.0 <= t <= 85.0]
        tail_window = [v for t, _, v in history if t >= 140.0]
        assert any(jump_window), "the reactive policy cannot avoid the jump violation"
        assert tail_window
        assert sum(tail_window) / len(tail_window) <= 0.25, "no recovery after the jump"

    def test_warmup_scale_down_is_the_spike_mechanism(self):
        """During light load the scaler shrinks parallelism — the paper's
        explanation for why the first increment hits so hard."""
        profile = PiecewiseRate([(0.0, 80.0)])
        job, _ = elastic_job_with(profile, bound=0.030)
        job.engine.run(60.0)
        assert job.parallelism("W") <= 2

    def test_higher_bound_costs_fewer_elastic_task_seconds(self):
        """The task-hour table's direction (paper: 46.4 .. 37.6)."""
        profile_segments = [(0.0, 200.0), (30.0, 1000.0), (60.0, 200.0)]

        def elastic_task_seconds(bound):
            job, _ = elastic_job_with(
                PiecewiseRate(list(profile_segments)), bound=bound
            )
            total = 0.0
            last = 0.0
            for _ in range(18):
                job.engine.run(5.0)
                total += job.parallelism("W") * 5.0
            return total

        tight = elastic_task_seconds(0.020)
        loose = elastic_task_seconds(0.100)
        assert loose <= tight

    def test_overprovisioning_after_burst_corrected(self):
        """Paper: over-scaling is corrected by subsequent scale-downs."""
        profile = PiecewiseRate([(0.0, 200.0), (30.0, 1500.0), (60.0, 200.0)])
        job, _ = elastic_job_with(profile, bound=0.030)
        job.engine.run(55.0)
        peak_p = job.parallelism("W")
        job.engine.run(80.0)
        settled_p = job.parallelism("W")
        assert peak_p >= 5
        assert settled_p < peak_p


class TestOverlappingConstraints:
    """Algorithm 2's P_min: a later Rebalance never undercuts an earlier one."""

    def test_shared_vertex_gets_max_of_both_constraints(self):
        graph = JobGraph("overlap")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
        shared = graph.add_vertex(
            "Shared", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.004, 0.7)),
            parallelism=2, min_parallelism=1, max_parallelism=32,
        )
        tail = graph.add_vertex(
            "Tail", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.002, 0.7)),
            parallelism=2, min_parallelism=1, max_parallelism=32,
        )
        sink = graph.add_vertex("Snk", lambda: SinkUDF())
        graph.connect(src, shared)
        graph.connect(shared, tail)
        graph.connect(tail, sink)
        src.rate_profile = ConstantRate(600.0)
        js_loose = JobSequence.from_names(graph, ["Shared"], leading_edge=True,
                                          trailing_edge=True)
        js_tight = JobSequence.from_names(graph, ["Shared", "Tail"],
                                          leading_edge=True, trailing_edge=True)
        loose = LatencyConstraint(js_loose, 0.200, name="loose")
        tight = LatencyConstraint(js_tight, 0.025, name="tight")
        engine = StreamProcessingEngine(
            EngineConfig.nephele_adaptive(elastic=True, seed=9, **OVERHEADS)
        )
        job = engine.submit(graph, [loose, tight])
        engine.run(90.0)
        # The tight constraint needs Shared well above the loose one's
        # choice; the merged decision must satisfy both trackers mostly.
        assert engine.tracker_for(tight).fulfillment_ratio > 0.6
        assert engine.tracker_for(loose).fulfillment_ratio > 0.8
        assert job.parallelism("Shared") >= 3  # 600/s x 4 ms = 2.4 busy
