"""Unit tests: constraints, trackers, bottlenecks, batching policy, Alg. 2."""

import pytest

from repro.core.batching_policy import AdaptiveBatchingPolicy
from repro.core.bottlenecks import find_bottlenecks, resolve_bottlenecks
from repro.core.constraints import ConstraintTracker, LatencyConstraint
from repro.core.scale_reactively import ScaleReactivelyPolicy, ScalingDecision
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.qos.summary import EdgeSummary, GlobalSummary, VertexSummary


def make_graph(worker_max=16, worker_p=2):
    graph = JobGraph("g")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda n, r: 0))
    worker = graph.add_vertex(
        "Worker", lambda: MapUDF(lambda x: x),
        parallelism=worker_p, min_parallelism=1, max_parallelism=worker_max,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    return graph


def make_summary(
    worker_service=0.004,
    worker_interarrival=0.02,
    worker_latency=0.004,
    edge_latency=0.003,
    edge_obl=0.001,
    cv=1.0,
):
    summary = GlobalSummary(10.0)
    summary.vertices["Worker"] = VertexSummary(
        "Worker", worker_latency, worker_service, cv, worker_interarrival, cv, n_tasks=2
    )
    summary.edges["Src->Worker"] = EdgeSummary("Src->Worker", edge_latency, edge_obl, 2)
    summary.edges["Worker->Snk"] = EdgeSummary("Worker->Snk", 0.002, 0.001, 2)
    return summary


def make_constraint(graph, bound=0.020):
    js = JobSequence.from_names(graph, ["Worker"], leading_edge=True, trailing_edge=True)
    return LatencyConstraint(js, bound)


class TestLatencyConstraint:
    def test_measured_latency_sums_elements(self):
        graph = make_graph()
        constraint = make_constraint(graph)
        summary = make_summary()
        # edges 0.003 + 0.002, vertex 0.004
        assert constraint.measured_latency(summary) == pytest.approx(0.009)

    def test_missing_edge_returns_none(self):
        graph = make_graph()
        constraint = make_constraint(graph)
        summary = make_summary()
        del summary.edges["Worker->Snk"]
        assert constraint.measured_latency(summary) is None

    def test_missing_vertex_contributes_zero(self):
        graph = make_graph()
        constraint = make_constraint(graph)
        summary = make_summary()
        del summary.vertices["Worker"]
        assert constraint.measured_latency(summary) == pytest.approx(0.005)

    def test_violation_check(self):
        graph = make_graph()
        summary = make_summary()
        tight = ConstraintTracker(LatencyConstraint(make_constraint(graph).sequence, 0.008))
        loose = ConstraintTracker(LatencyConstraint(make_constraint(graph).sequence, 0.020))
        tight.observe(1.0, summary)
        loose.observe(1.0, summary)
        assert tight.history[-1][2] and not loose.history[-1][2]

    def test_task_latency_sum(self):
        graph = make_graph()
        constraint = make_constraint(graph)
        assert constraint.task_latency_sum(make_summary()) == pytest.approx(0.004)

    def test_invalid_params_rejected(self):
        graph = make_graph()
        js = make_constraint(graph).sequence
        with pytest.raises(ValueError):
            LatencyConstraint(js, 0.0)
        with pytest.raises(ValueError):
            LatencyConstraint(js, 0.1, window=0.0)


class TestConstraintTracker:
    def test_fulfillment_ratio(self):
        graph = make_graph()
        constraint = make_constraint(graph, bound=0.008)
        tracker = ConstraintTracker(constraint)
        ok = make_summary(edge_latency=0.001)      # total 0.007 < 0.008... edges 0.001+0.002 + 0.004 = 0.007
        bad = make_summary(edge_latency=0.010)     # total 0.016 > 0.008
        tracker.observe(1.0, ok)
        tracker.observe(2.0, bad)
        tracker.observe(3.0, ok)
        assert tracker.intervals_observed == 3
        assert tracker.violations == 1
        assert tracker.fulfillment_ratio == pytest.approx(2 / 3)

    def test_unmeasured_intervals_skipped(self):
        graph = make_graph()
        tracker = ConstraintTracker(make_constraint(graph))
        summary = GlobalSummary(1.0)
        tracker.observe(1.0, summary)
        assert tracker.intervals_observed == 0


class TestBottlenecks:
    def test_detects_high_utilization(self):
        graph = make_graph()
        js = make_constraint(graph).sequence
        summary = make_summary(worker_service=0.019, worker_interarrival=0.02)  # rho = 0.95
        assert find_bottlenecks(js, summary, rho_max=0.9) == ["Worker"]

    def test_no_bottleneck_below_threshold(self):
        graph = make_graph()
        js = make_constraint(graph).sequence
        summary = make_summary()  # rho = 0.2
        assert find_bottlenecks(js, summary, rho_max=0.9) == []

    def test_resolve_doubles_parallelism(self):
        graph = make_graph(worker_max=64)
        js = make_constraint(graph).sequence
        summary = make_summary(worker_service=0.019, worker_interarrival=0.02)
        targets, unresolvable = resolve_bottlenecks(js, summary, {"Worker": 4})
        assert targets == {"Worker": 8}
        assert unresolvable == []

    def test_resolve_uses_offered_load_when_larger(self):
        graph = make_graph(worker_max=64)
        js = make_constraint(graph).sequence
        # rho = 3 per task (deep overload): 2*lambda*p*S = 2*3*p
        summary = make_summary(worker_service=0.03, worker_interarrival=0.01)
        targets, _ = resolve_bottlenecks(js, summary, {"Worker": 4})
        assert targets["Worker"] == 24  # max(8, ceil(2*3*4))

    def test_resolve_clamps_to_pmax(self):
        graph = make_graph(worker_max=6)
        js = make_constraint(graph).sequence
        summary = make_summary(worker_service=0.019, worker_interarrival=0.02)
        targets, _ = resolve_bottlenecks(js, summary, {"Worker": 4})
        assert targets["Worker"] == 6

    def test_fully_scaled_out_unresolvable(self):
        graph = make_graph(worker_max=4)
        js = make_constraint(graph).sequence
        summary = make_summary(worker_service=0.019, worker_interarrival=0.02)
        targets, unresolvable = resolve_bottlenecks(js, summary, {"Worker": 4})
        assert targets == {}
        assert unresolvable == ["Worker"]

    def test_invalid_rho_max_rejected(self):
        graph = make_graph()
        js = make_constraint(graph).sequence
        with pytest.raises(ValueError):
            find_bottlenecks(js, make_summary(), rho_max=0.0)


class TestAdaptiveBatchingPolicy:
    def test_budget_split_across_edges(self):
        graph = make_graph()
        constraint = make_constraint(graph, bound=0.020)
        policy = AdaptiveBatchingPolicy([constraint], batch_fraction=0.8, deadline_factor=1.0)
        targets = policy.compute_targets(make_summary(worker_latency=0.004))
        # slack = 0.016, budget = 0.0128, two edges -> 0.0064 each
        assert targets["Src->Worker"] == pytest.approx(0.0064)
        assert targets["Worker->Snk"] == pytest.approx(0.0064)

    def test_negative_slack_gives_min_deadline(self):
        graph = make_graph()
        constraint = make_constraint(graph, bound=0.002)
        policy = AdaptiveBatchingPolicy([constraint], min_deadline=0.0)
        targets = policy.compute_targets(make_summary(worker_latency=0.005))
        assert targets["Src->Worker"] == 0.0

    def test_tightest_constraint_wins_shared_edge(self):
        graph = make_graph()
        loose = make_constraint(graph, bound=0.100)
        tight = make_constraint(graph, bound=0.010)
        policy = AdaptiveBatchingPolicy([loose, tight], deadline_factor=1.0)
        targets = policy.compute_targets(make_summary())
        slack = 0.010 - 0.004
        assert targets["Src->Worker"] == pytest.approx(0.8 * slack / 2)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveBatchingPolicy([], batch_fraction=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchingPolicy([], deadline_factor=0.0)


class TestScaleReactively:
    def test_rebalance_path_produces_targets(self):
        graph = make_graph()
        constraint = make_constraint(graph, bound=0.020)
        policy = ScaleReactivelyPolicy([constraint])
        # moderately loaded worker: rho=0.6 per task at p=2
        summary = make_summary(worker_service=0.012, worker_interarrival=0.02)
        decision = policy.decide(summary, {"Worker": 2})
        assert "Worker" in decision.parallelism
        assert not decision.bottleneck_constraints

    def test_bottleneck_path_doubles(self):
        graph = make_graph()
        constraint = make_constraint(graph, bound=0.020)
        policy = ScaleReactivelyPolicy([constraint], rho_max=0.9)
        summary = make_summary(worker_service=0.019, worker_interarrival=0.02)
        decision = policy.decide(summary, {"Worker": 2})
        assert decision.bottleneck_constraints == [constraint.name]
        assert decision.parallelism["Worker"] == 4

    def test_missing_measurements_skip_constraint(self):
        graph = make_graph()
        constraint = make_constraint(graph)
        policy = ScaleReactivelyPolicy([constraint])
        decision = policy.decide(GlobalSummary(1.0), {"Worker": 2})
        assert decision.skipped_constraints == [constraint.name]
        assert not decision.has_actions

    def test_unattainable_bound_scales_to_max(self):
        graph = make_graph(worker_max=16)
        constraint = make_constraint(graph, bound=0.003)
        policy = ScaleReactivelyPolicy([constraint])
        summary = make_summary(worker_latency=0.005)  # task latency alone > bound
        decision = policy.decide(summary, {"Worker": 2})
        assert decision.infeasible_constraints == [constraint.name]
        assert decision.parallelism["Worker"] == 16

    def test_multiple_constraints_merge_max(self):
        graph = make_graph()
        tight = make_constraint(graph, bound=0.006)
        loose = make_constraint(graph, bound=0.200)
        policy = ScaleReactivelyPolicy([loose, tight])
        summary = make_summary(worker_service=0.012, worker_interarrival=0.02, cv=1.0)
        merged = policy.decide(summary, {"Worker": 2})
        loose_only = ScaleReactivelyPolicy([loose]).decide(summary, {"Worker": 2})
        tight_only = ScaleReactivelyPolicy([tight]).decide(summary, {"Worker": 2})
        assert merged.parallelism["Worker"] >= max(
            loose_only.parallelism.get("Worker", 0),
            tight_only.parallelism.get("Worker", 0),
        )

    def test_decision_merge_max_helper(self):
        decision = ScalingDecision()
        decision.merge_max({"a": 3})
        decision.merge_max({"a": 2, "b": 5})
        assert decision.parallelism == {"a": 3, "b": 5}

    def test_invalid_w_fraction_rejected(self):
        with pytest.raises(ValueError):
            ScaleReactivelyPolicy([], w_fraction=0.0)

    def test_w_fraction_boundaries(self):
        # (0, 1] is the valid interval: 1.0 is in, 0.0 and >1 are out.
        assert ScaleReactivelyPolicy([], w_fraction=1.0).w_fraction == 1.0
        assert ScaleReactivelyPolicy([], w_fraction=1e-9).w_fraction == 1e-9
        for bad in (-0.2, 0.0, 1.0000001, 2.0):
            with pytest.raises(ValueError, match=r"w_fraction must be .* \(0, 1\]"):
                ScaleReactivelyPolicy([], w_fraction=bad)

    def test_non_numeric_w_fraction_rejected_with_clear_message(self):
        with pytest.raises(ValueError, match="got '0.2'"):
            ScaleReactivelyPolicy([], w_fraction="0.2")
        with pytest.raises(ValueError, match="got None"):
            ScaleReactivelyPolicy([], w_fraction=None)

    def test_invalid_staleness_threshold_rejected(self):
        with pytest.raises(ValueError):
            ScaleReactivelyPolicy([], staleness_threshold=0.0)
        with pytest.raises(ValueError):
            ScaleReactivelyPolicy([], staleness_threshold=-5.0)
        # None disables the gate entirely
        assert ScaleReactivelyPolicy([], staleness_threshold=None).staleness_threshold is None
