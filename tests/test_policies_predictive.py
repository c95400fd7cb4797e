"""Tests for baseline policies (Sec. VI related work) and the predictive
extension (the paper's future-work direction)."""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.core.policies import CpuThresholdPolicy, RateBasedPolicy, StaticPolicy
from repro.core.predictive import HoltForecaster, PredictiveScaleReactivelyPolicy
from repro.core.scale_reactively import ScaleReactivelyPolicy
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.qos.summary import EdgeSummary, GlobalSummary, VertexSummary


def make_graph(worker_max=32):
    graph = JobGraph("g")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda n, r: 0))
    worker = graph.add_vertex(
        "Worker", lambda: MapUDF(lambda x: x),
        parallelism=4, min_parallelism=1, max_parallelism=worker_max,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    return graph


def summary_with(service=0.004, interarrival=0.02, cv=1.0, latency=0.004):
    s = GlobalSummary(0.0)
    s.vertices["Worker"] = VertexSummary("Worker", latency, service, cv, interarrival, cv, 4)
    s.edges["Src->Worker"] = EdgeSummary("Src->Worker", 0.003, 0.001, 4)
    s.edges["Worker->Snk"] = EdgeSummary("Worker->Snk", 0.002, 0.001, 4)
    return s


class TestCpuThresholdPolicy:
    def policy(self, graph, **kwargs):
        return CpuThresholdPolicy([graph.vertex("Worker")], **kwargs)

    def test_scales_out_above_high(self):
        graph = make_graph()
        # rho = 0.85 per task at p=4 -> busy 3.4 -> target 0.6 -> ceil(5.67)=6
        summary = summary_with(service=0.017, interarrival=0.02)
        decision = self.policy(graph).decide(summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 6

    def test_scales_in_below_low(self):
        graph = make_graph()
        # rho = 0.1 -> busy 0.4 -> ceil(0.67) = 1
        summary = summary_with(service=0.002, interarrival=0.02)
        decision = self.policy(graph).decide(summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 1

    def test_no_action_in_band(self):
        graph = make_graph()
        summary = summary_with(service=0.01, interarrival=0.02)  # rho = 0.5
        decision = self.policy(graph).decide(summary, {"Worker": 4})
        assert not decision.has_actions

    def test_clamped_to_bounds(self):
        graph = make_graph(worker_max=5)
        summary = summary_with(service=0.019, interarrival=0.02)
        decision = self.policy(graph).decide(summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 5

    def test_unmeasured_vertex_skipped(self):
        graph = make_graph()
        decision = self.policy(graph).decide(GlobalSummary(0.0), {"Worker": 4})
        assert not decision.has_actions
        assert decision.skipped_constraints == ["Worker"]

    def test_invalid_thresholds_rejected(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            self.policy(graph, high=0.5, low=0.6, target=0.55)


class TestRateBasedPolicy:
    def test_sizes_for_rate_plus_headroom(self):
        graph = make_graph()
        # total rate = 50/task * 4 = 200/s; busy = 200 * 0.01 = 2
        summary = summary_with(service=0.01, interarrival=0.02)
        policy = RateBasedPolicy([graph.vertex("Worker")], headroom=0.5)
        decision = policy.decide(summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 3  # ceil(2 * 1.5)

    def test_zero_headroom(self):
        graph = make_graph()
        summary = summary_with(service=0.01, interarrival=0.02)
        policy = RateBasedPolicy([graph.vertex("Worker")], headroom=0.0)
        decision = policy.decide(summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 2

    def test_negative_headroom_rejected(self):
        with pytest.raises(ValueError):
            RateBasedPolicy([], headroom=-0.1)


class TestStaticPolicy:
    def test_never_acts(self):
        decision = StaticPolicy().decide(summary_with(), {"Worker": 4})
        assert not decision.has_actions


class TestHoltForecaster:
    def test_first_observation_sets_level(self):
        f = HoltForecaster()
        f.observe(10.0)
        assert f.level == 10.0
        assert f.forecast(1.0) == 10.0

    def test_tracks_linear_trend(self):
        f = HoltForecaster(alpha=0.8, beta=0.5)
        for i in range(20):
            f.observe(100.0 + 10.0 * i)
        assert f.forecast(1.0) == pytest.approx(100.0 + 10.0 * 20, rel=0.1)

    def test_constant_series_flat_forecast(self):
        f = HoltForecaster()
        for _ in range(10):
            f.observe(42.0)
        assert f.forecast(5.0) == pytest.approx(42.0, rel=0.01)

    def test_forecast_never_negative(self):
        f = HoltForecaster(alpha=0.9, beta=0.9)
        for v in (100.0, 50.0, 10.0, 1.0):
            f.observe(v)
        assert f.forecast(10.0) >= 0.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            HoltForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            HoltForecaster(beta=1.5)


class TestPredictivePolicy:
    def make_policy(self, graph, horizon=1.0):
        js = JobSequence.from_names(graph, ["Worker"], leading_edge=True, trailing_edge=True)
        constraint = LatencyConstraint(js, 0.020)
        return constraint, PredictiveScaleReactivelyPolicy([constraint], horizon=horizon)

    def test_rising_rates_scale_earlier_than_reactive(self):
        graph = make_graph()
        constraint, predictive = self.make_policy(graph)
        reactive = ScaleReactivelyPolicy([constraint])
        # Feed a steep ramp: interarrival shrinking each round.
        decisions = {}
        for policy, name in ((predictive, "predictive"), (reactive, "reactive")):
            last = None
            for interarrival in (0.05, 0.025, 0.0125, 0.008):
                last = policy.decide(
                    summary_with(service=0.006, interarrival=interarrival),
                    {"Worker": 4},
                )
            decisions[name] = last.parallelism.get("Worker", 0)
        assert decisions["predictive"] >= decisions["reactive"]

    def test_forecast_never_below_measurement(self):
        graph = make_graph()
        _, policy = self.make_policy(graph)
        # Falling rates: forecast must not undercut the measurement.
        for interarrival in (0.01, 0.02, 0.04):
            summary = summary_with(interarrival=interarrival)
            projected = policy._project_summary(summary, {"Worker": 4})
            for name, vs in summary.vertices.items():
                assert projected.vertex(name).arrival_rate >= vs.arrival_rate - 1e-9

    def test_zero_horizon_matches_reactive(self):
        graph = make_graph()
        constraint, predictive = self.make_policy(graph, horizon=0.0)
        reactive = ScaleReactivelyPolicy([constraint])
        summary = summary_with(service=0.008, interarrival=0.01)
        a = predictive.decide(summary, {"Worker": 4})
        b = reactive.decide(summary, {"Worker": 4})
        assert a.parallelism == b.parallelism

    def test_projected_summary_covers_every_vertex(self):
        graph = make_graph()
        _, policy = self.make_policy(graph)
        summary = summary_with()
        projected = policy._project_summary(summary, {"Worker": 4})
        assert list(projected.vertices) == list(summary.vertices) == ["Worker"]
        assert projected.timestamp == summary.timestamp
        # a steady ramp (200, 400, ... 1000 items/s in total) is projected
        # above the measurement once the trend is learned
        for step in range(2, 6):
            summary = summary_with(interarrival=0.02 / step)
            projected = policy._project_summary(summary, {"Worker": 4})
        assert projected.vertex("Worker").arrival_rate > summary.vertex("Worker").arrival_rate

    def test_invalid_horizon_rejected(self):
        graph = make_graph()
        js = JobSequence.from_names(graph, ["Worker"], leading_edge=True, trailing_edge=True)
        with pytest.raises(ValueError):
            PredictiveScaleReactivelyPolicy([LatencyConstraint(js, 0.02)], horizon=-1.0)
