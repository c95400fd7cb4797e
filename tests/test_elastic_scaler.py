"""Unit tests for the ElasticScaler driver (inactivity, event log)."""

import pytest

from repro.core.elastic_scaler import ElasticScaler, ScalingEvent
from repro.core.scale_reactively import ScalingDecision
from repro.engine.scheduler import ScalingResult
from repro.simulation.kernel import Simulator


class FakePolicy:
    """Returns a queued list of decisions."""

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.calls = 0

    def decide(self, summary, current):
        self.calls += 1
        if self.decisions:
            return self.decisions.pop(0)
        return ScalingDecision()


class FakeScheduler:
    startup_delay = 1.5

    def __init__(self, deltas=None):
        self.calls = []
        self.deltas = deltas or {}

    def set_parallelism(self, vertex, target):
        self.calls.append((vertex, target))
        delta = self.deltas.get(vertex, 0)
        return ScalingResult(delta, delta)


class FakeVertex:
    def __init__(self, p):
        self.target_parallelism = p


class FakeRuntime:
    def __init__(self, parallelism):
        self.vertices = {name: FakeVertex(p) for name, p in parallelism.items()}


def decision_with(parallelism, bottleneck=False):
    decision = ScalingDecision()
    decision.merge_max(parallelism)
    if bottleneck:
        decision.bottleneck_constraints.append("c")
    return decision


def make_scaler(decisions, deltas=None, parallelism=None):
    sim = Simulator()
    scheduler = FakeScheduler(deltas)
    runtime = FakeRuntime(parallelism or {"W": 2})
    policy = FakePolicy(decisions)
    scaler = ElasticScaler(sim, scheduler, runtime, policy,
                           adjustment_interval=5.0, inactivity_intervals=2)
    return sim, scheduler, policy, scaler


class TestElasticScaler:
    def test_issues_actions(self):
        sim, scheduler, policy, scaler = make_scaler(
            [decision_with({"W": 6})], deltas={"W": 4}
        )
        scaler.on_global_summary(None)
        assert scheduler.calls == [("W", 6)]
        assert len(scaler.events) == 1
        assert scaler.events[0].applied == {"W": 4}

    def test_inactivity_after_scale_up(self):
        sim, scheduler, policy, scaler = make_scaler(
            [decision_with({"W": 6}), decision_with({"W": 8})], deltas={"W": 4}
        )
        scaler.on_global_summary(None)
        assert scaler.inactive
        # Within the inactivity window nothing happens.
        sim.run(until=5.0)
        assert scaler.on_global_summary(None) is None
        assert scaler.skipped_inactive == 1
        assert policy.calls == 1
        # After startup_delay + 2 x adjustment_interval the scaler acts again.
        sim.run(until=12.0)
        scaler.on_global_summary(None)
        assert policy.calls == 2

    def test_no_inactivity_after_scale_down(self):
        sim, scheduler, policy, scaler = make_scaler(
            [decision_with({"W": 1}), decision_with({"W": 1})], deltas={"W": -1}
        )
        scaler.on_global_summary(None)
        assert not scaler.inactive
        scaler.on_global_summary(None)
        assert policy.calls == 2

    def test_no_action_decision_records_nothing(self):
        sim, scheduler, policy, scaler = make_scaler([ScalingDecision()])
        decision = scaler.on_global_summary(None)
        assert decision is not None
        assert scheduler.calls == []
        assert scaler.events == []

    def test_unresolvable_logged(self):
        decision = ScalingDecision()
        decision.unresolvable.append("W")
        sim, scheduler, policy, scaler = make_scaler([decision])
        scaler.on_global_summary(None)
        assert scaler.unresolvable == 1

    def test_bottleneck_reason_recorded(self):
        sim, scheduler, policy, scaler = make_scaler(
            [decision_with({"W": 4}, bottleneck=True)], deltas={"W": 2}
        )
        decision = scaler.on_global_summary(None)
        assert decision.bottleneck_constraints
        assert scaler.events[0].applied == {"W": 2}

    def test_event_repr(self):
        event = ScalingEvent(1.0, {"W": 2})
        assert "'W': 2" in repr(event)

    def test_current_parallelism_passed_to_policy(self):
        class RecordingPolicy(FakePolicy):
            def decide(self, summary, current):
                self.seen = dict(current)
                return super().decide(summary, current)

        sim = Simulator()
        scheduler = FakeScheduler()
        runtime = FakeRuntime({"A": 3, "B": 7})
        policy = RecordingPolicy([ScalingDecision()])
        scaler = ElasticScaler(sim, scheduler, runtime, policy)
        scaler.on_global_summary(None)
        assert policy.seen == {"A": 3, "B": 7}
