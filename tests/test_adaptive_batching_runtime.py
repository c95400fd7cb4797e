"""Integration tests: the adaptive output-batching control loop at runtime."""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.graphs.sequences import JobSequence

from conftest import make_linear_job


def adaptive_job(bound, source_rate=100.0, qos_managers=4, seed=6,
                    deadline_factor=0.9):
    config = EngineConfig.nephele_adaptive(
        elastic=False, seed=seed, qos_managers=qos_managers,
        deadline_factor=deadline_factor,
    )
    engine = StreamProcessingEngine(config)
    graph = make_linear_job(source_rate=source_rate, service_mean=0.002)
    js = JobSequence.from_names(graph, ["Worker"], leading_edge=True, trailing_edge=True)
    constraint = LatencyConstraint(js, bound)
    return engine.submit(graph, [constraint]), constraint


def gate_deadlines(job, edge_name):
    deadlines = []
    for task in job.runtime.all_tasks():
        for gate in task.out_gates:
            if gate.edge_name == edge_name and hasattr(gate.strategy, "deadline"):
                deadlines.append(gate.strategy.deadline)
    return deadlines


class TestAdaptiveBatchingRuntime:
    def test_deadlines_converge_towards_slack_share(self):
        job, constraint = adaptive_job(bound=0.050)
        job.engine.run(30.0)
        deadlines = gate_deadlines(job, "Source->Worker")
        assert deadlines
        # slack ~ 48 ms, 80 % batching share over 2 edges, x0.9 factor
        expected = 0.9 * 0.8 * (0.050 - 0.002) / 2
        for deadline in deadlines:
            assert deadline == pytest.approx(expected, rel=0.25)

    def test_larger_bound_larger_deadlines(self):
        tight_job, _ = adaptive_job(bound=0.020)
        loose_job, _ = adaptive_job(bound=0.200)
        tight_job.engine.run(30.0)
        loose_job.engine.run(30.0)
        tight = max(gate_deadlines(tight_job, "Source->Worker"))
        loose = max(gate_deadlines(loose_job, "Source->Worker"))
        assert loose > 3 * tight

    def test_mean_latency_respects_bound_steady_state(self):
        for bound in (0.020, 0.060):
            job, constraint = adaptive_job(bound=bound)
            job.engine.run(40.0)
            tracker = job.tracker_for(constraint)
            assert tracker.fulfillment_ratio >= 0.85, bound

    def test_batching_exploits_most_of_the_slack(self):
        """Larger bounds must actually be *used* for batching (bigger
        obl), not just tolerated — that is the throughput lever."""
        job, _ = adaptive_job(bound=0.100, source_rate=200.0)
        job.engine.run(40.0)
        es = job.last_summary.edge("Source->Worker")
        assert es.output_batch_latency > 0.010

    def test_all_gates_of_edge_get_same_deadline(self):
        job, _ = adaptive_job(bound=0.050)
        job.engine.run(20.0)
        deadlines = set(round(d, 9) for d in gate_deadlines(job, "Worker->Sink"))
        assert len(deadlines) == 1

    def test_manager_count_does_not_change_behaviour(self):
        """Partial-summary merging must be transparent: 1 manager vs 8
        managers give the same measurements for the same run."""
        one, c1 = adaptive_job(bound=0.050, qos_managers=1, seed=12)
        many, c2 = adaptive_job(bound=0.050, qos_managers=8, seed=12)
        one.engine.run(25.0)
        many.engine.run(25.0)
        vs_one = one.last_summary.vertex("Worker")
        vs_many = many.last_summary.vertex("Worker")
        assert vs_one.service_mean == pytest.approx(vs_many.service_mean, rel=1e-6)
        assert vs_one.arrival_rate == pytest.approx(vs_many.arrival_rate, rel=1e-6)
        es_one = one.last_summary.edge("Source->Worker")
        es_many = many.last_summary.edge("Source->Worker")
        assert es_one.channel_latency == pytest.approx(es_many.channel_latency, rel=1e-6)

    def test_unconstrained_job_keeps_initial_deadline(self):
        config = EngineConfig.nephele_adaptive(elastic=False, seed=6)
        engine = StreamProcessingEngine(config)
        job = engine.submit(make_linear_job(source_rate=100.0))
        engine.run(15.0)
        deadlines = gate_deadlines(job, "Source->Worker")
        initial = config.batching.deadline
        assert all(d == pytest.approx(initial) for d in deadlines)
