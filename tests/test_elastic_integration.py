"""Integration tests: the reactive scaling strategy end to end."""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.obs.trace import BRANCH_BOTTLENECK, DecisionTrace
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate, PiecewiseRate


def elastic_job(profile, service_mean=0.004, p_init=4, p_min=1, p_max=32):
    graph = JobGraph("elastic")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: rng.random()))
    worker = graph.add_vertex(
        "Worker",
        lambda: MapUDF(lambda x: x, service_dist=Gamma(service_mean, 0.7)),
        parallelism=p_init, min_parallelism=p_min, max_parallelism=p_max,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    src.rate_profile = profile
    js = JobSequence.from_names(graph, ["Worker"], leading_edge=True, trailing_edge=True)
    return graph, js


def deploy_elastic(graph, constraint, seed=5):
    config = EngineConfig.nephele_adaptive(elastic=True, seed=seed)
    engine = StreamProcessingEngine(config)
    return engine.submit(graph, [constraint])


class TestReactiveScaling:
    def test_scales_down_under_light_load(self):
        graph, js = elastic_job(ConstantRate(50.0), p_init=8)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030))
        job.engine.run(60.0)
        # 50 items/s need ~0.2 servers; Rebalance should shrink far below 8.
        assert job.parallelism("Worker") <= 3

    def test_scales_up_when_load_rises(self):
        profile = PiecewiseRate([(0.0, 50.0), (30.0, 1200.0)])
        graph, js = elastic_job(profile, p_init=2)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030))
        job.engine.run(28.0)
        low_p = job.parallelism("Worker")
        job.engine.run(60.0)
        high_p = job.parallelism("Worker")
        # 1200/s x 4 ms = 4.8 busy servers minimum
        assert high_p >= 5
        assert high_p > low_p

    def test_bottleneck_resolution_doubles(self):
        profile = PiecewiseRate([(0.0, 1500.0)])
        graph, js = elastic_job(profile, p_init=2)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.050))
        assert job.scaler is not None
        job.scaler.trace_sink = DecisionTrace()
        job.engine.run(40.0)
        # p=2 gives capacity 500/s against 1500/s offered: deep bottleneck;
        # ResolveBottlenecks must have fired and scaled out repeatedly.
        assert job.parallelism("Worker") >= 6
        assert any(
            r.branch == BRANCH_BOTTLENECK and r.p_applied
            for r in job.scaler.trace_sink.records
        )

    def test_constraint_mostly_fulfilled_steady_state(self):
        graph, js = elastic_job(ConstantRate(400.0), p_init=4)
        constraint = LatencyConstraint(js, 0.030)
        job = deploy_elastic(graph, constraint)
        job.engine.run(120.0)
        tracker = job.engine.tracker_for(constraint)
        assert tracker.fulfillment_ratio >= 0.8

    def test_inactivity_window_after_scale_up(self):
        profile = PiecewiseRate([(0.0, 50.0), (20.0, 1200.0)])
        graph, js = elastic_job(profile, p_init=2)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030))
        job.engine.run(90.0)
        scaler = job.scaler
        assert scaler.skipped_inactive > 0

    def test_unresolvable_bottleneck_logged(self):
        profile = PiecewiseRate([(0.0, 1500.0)])
        graph, js = elastic_job(profile, p_init=2, p_max=3)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030))
        job.engine.run(40.0)
        assert job.scaler.unresolvable > 0

    def test_scaling_events_have_applied_deltas(self):
        profile = PiecewiseRate([(0.0, 50.0), (20.0, 900.0)])
        graph, js = elastic_job(profile, p_init=2)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030))
        job.engine.run(60.0)
        events = job.scaler.events
        assert events
        assert any(
            any(delta > 0 for delta in event.applied.values()) for event in events
        )

    def test_non_elastic_engine_never_scales(self):
        graph, js = elastic_job(ConstantRate(50.0), p_init=8)
        config = EngineConfig.nephele_adaptive(elastic=False)
        engine = StreamProcessingEngine(config)
        job = engine.submit(graph, [LatencyConstraint(js, 0.030)])
        engine.run(60.0)
        assert job.parallelism("Worker") == 8
        assert job.scaler is None


class TestDeterminism:
    """Same seed, same config, same load => bit-identical scaling runs."""

    def _run_fingerprint(self, seed=5, duration=70.0):
        profile = PiecewiseRate([(0.0, 100.0), (25.0, 900.0), (50.0, 200.0)])
        graph, js = elastic_job(profile, p_init=2)
        job = deploy_elastic(graph, LatencyConstraint(js, 0.030), seed=seed)
        decisions = []
        scaler = job.scaler
        original = scaler.on_global_summary

        def recording(summary):
            decision = original(summary)
            if decision is not None:
                decisions.append(repr(decision))
            return decision

        scaler.on_global_summary = recording
        job.engine.run(duration)
        return {
            "decisions": decisions,
            "scaling_log": list(job.scheduler.scaling_log),
            "events": [(e.time, e.applied) for e in scaler.events],
            "parallelism": {
                name: rv.parallelism
                for name, rv in job.runtime.vertices.items()
            },
        }

    def test_same_seed_identical_decision_sequence(self):
        first = self._run_fingerprint(seed=5)
        second = self._run_fingerprint(seed=5)
        assert first["decisions"] == second["decisions"]
        assert first["scaling_log"] == second["scaling_log"]
        assert first["events"] == second["events"]
        assert first["parallelism"] == second["parallelism"]

    def test_different_seed_may_diverge_but_stays_valid(self):
        # Not asserting divergence (both seeds can legitimately agree) —
        # only that another seed also yields a well-formed run.
        other = self._run_fingerprint(seed=11)
        assert other["parallelism"]["Worker"] >= 1
        assert all(new_p >= 1 for _, _, _, new_p in other["scaling_log"])
