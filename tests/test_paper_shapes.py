"""Regression locks on the paper's qualitative results.

Most tests pin one phenomenon from the paper on a small scenario so
that refactorings cannot silently lose it. ``TestFig6Quick`` and
``TestFig8Quick`` pin the same shapes on one run each of
``repro experiment fig6 --quick`` and ``fig8 --quick``: the claims
ROADMAP item 4(c) is to gate across seeds, here on the committed seed.
"""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.batching import FixedSizeBatching, InstantFlush
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.experiments.fig6_primetester import Fig6Params
from repro.experiments.fig6_primetester import run as run_fig6
from repro.experiments.fig8_twitter import Fig8Params
from repro.experiments.fig8_twitter import run as run_fig8
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


FIG6_QUICK = Fig6Params().quick()


@pytest.fixture(scope="module")
def fig6_quick():
    """One quick Fig. 6 run: elastic 20 ms, the baseline, the 40 ms sweep point."""
    return run_fig6(FIG6_QUICK)


class TestFig6Quick:
    """Sec. V-A on ``experiment fig6 --quick`` (``results/fig6_quick.txt``)."""

    def test_constraint_mostly_fulfilled(self, fig6_quick):
        """Paper: the 20 ms constraint holds in 91 % of the intervals.

        The quick run reads 78.9 % (the full run 98.6 %).
        """
        assert fig6_quick.elastic.fulfillment >= 0.75

    def test_task_seconds_comparable_to_the_hand_tuned_baseline(self, fig6_quick):
        ratio = fig6_quick.elastic.task_seconds / fig6_quick.baseline.task_seconds
        assert 0.4 <= ratio <= 1.4

    def test_elastic_adapts_parallelism(self, fig6_quick):
        elastic = fig6_quick.elastic
        assert elastic.min_parallelism < FIG6_QUICK.workload.n_testers
        assert elastic.max_parallelism > elastic.min_parallelism

    def test_baseline_latency_floor(self, fig6_quick):
        """The throughput-tuned baseline cannot reach low latency (paper: >= 348 ms)."""
        assert fig6_quick.baseline.min_mean_latency > 5 * fig6_quick.elastic.min_mean_latency

    def test_looser_bound_costs_fewer_task_seconds(self, fig6_quick):
        """The task-hour table's direction (paper: 46.4 .. 37.6), 20 -> 40 ms."""
        task_seconds, fulfillment, _ = fig6_quick.sweep[0.040]
        assert task_seconds < fig6_quick.elastic.task_seconds
        assert fulfillment >= 0.75


@pytest.fixture(scope="module")
def fig8_quick():
    return run_fig8(Fig8Params().quick())


class TestFig8Quick:
    """Sec. V-B on ``experiment fig8 --quick`` (``results/fig8_quick.txt``)."""

    def test_constraints_mostly_fulfilled(self, fig8_quick):
        """Paper: 93 % (hot topics) and 96 % (sentiment)."""
        assert fig8_quick.fulfillment
        for name, ratio in fig8_quick.fulfillment.items():
            assert ratio >= 0.7, (name, ratio)

    def test_sentiment_scales_up_at_the_burst(self, fig8_quick):
        assert fig8_quick.sentiment_burst_scaleup is not None
        assert fig8_quick.sentiment_burst_scaleup >= 2

    def test_slight_overprovisioning(self, fig8_quick):
        """Paper: mean task CPU utilisation 55.7 %."""
        assert 0.05 <= fig8_quick.mean_cpu_utilization <= 0.9

    def test_elastic_vertices_adapt(self, fig8_quick):
        for vertex in ("HotTopics", "Sentiment"):
            low, high = fig8_quick.parallelism_ranges[vertex]
            assert high > low, vertex
