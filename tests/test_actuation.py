"""Supervised actuation: config validation, reconciliation, watchdog, chaos.

The acceptance scenario from the issue: with an ``ActuationFailure``
injected on the bottleneck vertex, the reconciler keeps retrying with
backoff, the watchdog escalates to doubling, and the latency constraint
is eventually satisfied again — all byte-identically across same-seed
runs. With actuation supervision off (the default) nothing changes.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from repro.actuation import ActuationConfig, ReconciliationController
from repro.builder import PipelineBuilder
from repro.core.elastic_scaler import ElasticScaler
from repro.core.scale_reactively import ScalingDecision
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.scheduler import ScalingResult
from repro.obs.config import ObservabilityConfig
from repro.obs.trace import (
    BRANCH_ACTUATION_FAILED,
    BRANCH_ACTUATION_PENDING,
    BRANCH_RETRY_BACKOFF,
    BRANCH_SCALE_DOWN_CLAMPED,
    BRANCH_WATCHDOG_ESCALATION,
    TRACE_SCHEMA_VERSION,
    DecisionTrace,
)
from repro.simulation.faults import ActuationFailure, FaultPlan
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import Deterministic, Gamma, RandomStreams, Uniform
from repro.workloads.rates import ConstantRate

from conftest import make_linear_job


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def deploy(worker_min=1, worker_max=32, n_workers=2, config=None):
    engine = StreamProcessingEngine(config or EngineConfig())
    graph = make_linear_job(
        n_workers=n_workers, worker_min=worker_min, worker_max=worker_max
    )
    return engine.submit(graph)


def make_reconciler(job, trace=False, seed=11, **cfg_kwargs):
    """A reconciler wired to a deployed job, deterministic by default."""
    cfg_kwargs.setdefault("provisioning_delay", Deterministic(0.5))
    cfg_kwargs.setdefault("backoff_jitter", 0.0)
    config = ActuationConfig(**cfg_kwargs)
    sink = DecisionTrace() if trace else None
    rec = ReconciliationController(
        job.engine.sim, job.scheduler, job.runtime, config,
        RandomStreams(seed), trace_sink=sink, job_name="linear",
    )
    return rec, sink


class FakePolicy:
    """Returns a queued list of decisions (same idiom as scaler tests)."""

    def __init__(self, decisions):
        self.decisions = list(decisions)

    def decide(self, summary, current):
        if self.decisions:
            return self.decisions.pop(0)
        return ScalingDecision()


def decision_with(parallelism):
    decision = ScalingDecision()
    decision.merge_max(parallelism)
    return decision


def build_actuation_chaos_pipeline(fault_seed=0, **actuate_kwargs):
    """Issue acceptance pipeline: actuation outage on the bottleneck vertex.

    The worker starts at parallelism 1 (the constraint needs ~3), and the
    provisioning path is down from t=5 to t=35 — every scale-up the
    scaler orders fails until the outage lifts.
    """
    actuate_kwargs.setdefault("watchdog_intervals", 2)
    actuate_kwargs.setdefault("backoff_base", 1.0)
    actuate_kwargs.setdefault("backoff_max", 8.0)
    return (
        PipelineBuilder("actuation-chaos")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(1, 1, 32))
        .sink()
        .constrain(bound=0.030)
        .actuate(**actuate_kwargs)
        .inject(
            ActuationFailure(at=5.0, duration=30.0, vertex="worker"),
            seed=fault_seed,
        )
        .build()
    )


def run_actuation_chaos(duration=120.0, engine_seed=7, observability=None, **actuate_kwargs):
    pipeline = build_actuation_chaos_pipeline(**actuate_kwargs)
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=engine_seed), observability=observability
    )
    job = engine.submit(pipeline)
    engine.run(duration)
    return engine, job


# ----------------------------------------------------------------------
# ActuationConfig validation (satellite: reject bad knobs at construction)
# ----------------------------------------------------------------------


class TestActuationConfigValidation:
    def test_defaults_are_valid(self):
        config = ActuationConfig()
        assert config.max_retries == 5
        assert len(dataclasses.fields(config)) == 8

    @pytest.mark.parametrize("kwargs", [
        {"timeout": float("nan")},
        {"backoff_max": -1.0},
        {"backoff_jitter": float("nan")},
        {"timeout": 0.0},
        {"timeout": float("inf")},
        {"max_retries": -1},
        {"backoff_base": 0.0},
        {"backoff_factor": 0.5},
        {"backoff_max": 0.0},
        {"backoff_jitter": -0.1},
        {"backoff_jitter": 1.5},
        {"watchdog_intervals": -3},
        {"backoff_base": float("inf")},
        {"watchdog_intervals": 0},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ActuationConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"timeout": "10"},
        {"backoff_factor": True},
        {"timeout": None},
        {"max_retries": 1.5},
        {"max_retries": True},
        {"backoff_base": "1"},
        {"backoff_jitter": None},
        {"watchdog_intervals": 2.0},
        {"watchdog_intervals": True},
        {"provisioning_delay": 0.5},
    ])
    def test_wrong_type_rejected(self, kwargs):
        with pytest.raises(TypeError):
            ActuationConfig(**kwargs)

    def test_describe_is_json_serializable(self):
        described = ActuationConfig(watchdog_intervals=4).describe()
        parsed = json.loads(json.dumps(described))
        assert parsed["watchdog_intervals"] == 4
        assert parsed["provisioning_delay"] == "Uniform"


class TestRecoveryCooldownValidation:
    """Satellite: ElasticScaler(recovery_cooldown=...) rejects bad values."""

    def _make(self, cooldown):
        return ElasticScaler(
            Simulator(), None, None, None, recovery_cooldown=cooldown
        )

    @pytest.mark.parametrize("bad", ["15", True, None])
    def test_non_number_rejected(self, bad):
        with pytest.raises(TypeError):
            self._make(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_rejected(self, bad):
        with pytest.raises(ValueError):
            self._make(bad)

    def test_valid_values_coerced_to_float(self):
        scaler = self._make(0)
        assert scaler.recovery_cooldown == 0.0
        assert isinstance(scaler.recovery_cooldown, float)


# ----------------------------------------------------------------------
# ScalingResult (satellite: set_parallelism reports requested vs applied)
# ----------------------------------------------------------------------


class TestScalingResult:
    def test_scale_up_reports_full_application(self):
        job = deploy()
        job.engine.run(1.0)
        result = job.scheduler.set_parallelism("Worker", 5)
        assert result == ScalingResult(3, 3)

    def test_noop_is_zero_zero(self):
        job = deploy()
        assert job.scheduler.set_parallelism("Worker", 2) == ScalingResult(0, 0)

    def test_scale_down_at_min_with_pending_additions(self):
        """Satellite: reducible == 0 → no task stopped, applied == 0."""
        job = deploy(worker_min=2, n_workers=2)
        job.engine.run(0.5)
        # raise the target; the new tasks are still pending (startup delay)
        job.scheduler.set_parallelism("Worker", 5)
        rv = job.runtime.vertex("Worker")
        assert rv.pending_additions == 3
        tasks_before = list(rv.tasks)
        result = job.scheduler.set_parallelism("Worker", 2)
        # live parallelism (2) is at min_parallelism: nothing is drainable
        assert result == ScalingResult(-3, 0)
        assert rv.tasks == tasks_before
        assert all(t.state == "running" for t in rv.tasks)

    def test_scaler_traces_suppressed_reduction(self):
        """The sync scaler path records a scale-down-clamped branch."""
        job = deploy(worker_min=2, n_workers=2)
        job.engine.run(0.5)
        job.scheduler.set_parallelism("Worker", 5)
        policy = FakePolicy([decision_with({"Worker": 2})])
        scaler = ElasticScaler(
            job.engine.sim, job.scheduler, job.runtime, policy,
            recovery_cooldown=0.0,
        )
        scaler.trace_sink = DecisionTrace()
        scaler.on_global_summary(None)
        branches = [r.branch for r in scaler.trace_sink.records]
        assert BRANCH_SCALE_DOWN_CLAMPED in branches
        assert all(t.state == "running" for t in job.runtime.vertex("Worker").tasks)


# ----------------------------------------------------------------------
# ReconciliationController unit behavior
# ----------------------------------------------------------------------


class TestReconciler:
    def test_scale_up_applies_after_provisioning_delay(self):
        job = deploy()
        rec, sink = make_reconciler(job, trace=True)
        delta = rec.request("Worker", 4)
        assert delta == 2
        assert rec.in_flight_vertices() == ["Worker"]
        assert job.runtime.vertex("Worker").target_parallelism == 2  # not yet
        job.engine.run(0.6)  # Deterministic(0.5) provisioning
        assert job.runtime.vertex("Worker").target_parallelism == 4
        assert rec.in_flight == {}
        assert rec.requests == 1 and rec.applied == 1
        assert [r.branch for r in sink.records] == [BRANCH_ACTUATION_PENDING]

    def test_noop_target_not_issued(self):
        job = deploy()
        rec, _ = make_reconciler(job)
        assert rec.request("Worker", 2) == 0
        assert rec.in_flight == {} and rec.desired == {}

    def test_fault_window_fails_then_retry_converges(self):
        job = deploy()
        rec, sink = make_reconciler(job, trace=True, backoff_base=1.0)
        rec.fail_actuations("Worker", until=2.0)
        rec.request("Worker", 4)
        # attempt 1 completes at t=0.5 inside the window and fails;
        # retry backs off 1.0 s, attempt 2 completes at t=2.0 — window over.
        job.engine.run(2.5)
        assert rec.failures == 1 and rec.retries == 1 and rec.applied == 1
        assert job.runtime.vertex("Worker").target_parallelism == 4
        branches = [r.branch for r in sink.records]
        assert BRANCH_ACTUATION_PENDING in branches
        assert BRANCH_ACTUATION_FAILED in branches
        assert BRANCH_RETRY_BACKOFF in branches

    def test_backoff_grows_exponentially(self):
        job = deploy()
        rec, sink = make_reconciler(
            job, trace=True, backoff_base=1.0, backoff_factor=2.0, max_retries=3
        )
        rec.fail_actuations(None, until=1e9)  # "*": everything fails
        rec.request("Worker", 4)
        job.engine.run(30.0)
        backoffs = [
            r.detail for r in sink.records if r.branch == BRANCH_RETRY_BACKOFF
        ]
        assert backoffs == ["retry in 1.000s", "retry in 2.000s", "retry in 4.000s"]

    def test_give_up_after_max_retries(self):
        job = deploy()
        rec, _ = make_reconciler(job, max_retries=0)
        rec.fail_actuations("Worker", until=1e9)
        rec.request("Worker", 4)
        job.engine.run(1.0)
        assert rec.give_ups == 1
        assert rec.in_flight == {}
        assert job.runtime.vertex("Worker").target_parallelism == 2

    def test_give_up_counts_as_abandoned(self):
        job = deploy()
        rec, _ = make_reconciler(job, max_retries=0)
        rec.fail_actuations("Worker", until=1e9)
        rec.request("Worker", 4)
        job.engine.run(1.0)
        assert rec.give_ups == 1
        summary = rec.summary()
        assert summary["abandoned"] == summary["give_ups"] == 1
        # the migrations section appears only on stateful jobs
        assert "migrations" not in summary

    def test_timeout_counts_as_failure(self):
        job = deploy()
        rec, sink = make_reconciler(
            job, trace=True, provisioning_delay=Deterministic(5.0), timeout=1.0,
            max_retries=0,
        )
        rec.request("Worker", 4)
        job.engine.run(1.5)
        failed = [r.detail for r in sink.records if r.branch == BRANCH_ACTUATION_FAILED]
        assert failed and "timeout" in failed[0]

    def test_delay_window_stretches_provisioning(self):
        job = deploy()
        rec, _ = make_reconciler(job)  # Deterministic(0.5)
        rec.delay_actuations("Worker", factor=4.0, until=10.0)
        rec.request("Worker", 4)
        job.engine.run(1.9)  # 0.5 * 4 = 2.0 s provisioning
        assert job.runtime.vertex("Worker").target_parallelism == 2
        job.engine.run(0.2)
        assert job.runtime.vertex("Worker").target_parallelism == 4

    def test_sampled_failures_are_seeded(self):
        def outage_trace(seed):
            job = deploy()
            rec, sink = make_reconciler(
                job, trace=True, seed=seed, max_retries=5,
                provisioning_delay=Uniform(0.3, 1.2), backoff_jitter=0.1,
            )
            rec.fail_actuations("Worker", until=20.0)
            rec.request("Worker", 4)
            job.engine.run(60.0)
            assert rec.failures >= 2 and rec.applied == 1
            return [r.to_dict() for r in sink.records]

        # provisioning delays and retry jitter are seeded draws: same seed,
        # same lifecycle; another seed moves the jittered backoffs
        first = outage_trace(11)
        assert outage_trace(11) == first
        assert outage_trace(12) != first

    def test_watchdog_escalates_to_doubling(self):
        job = deploy()
        rec, sink = make_reconciler(job, trace=True, watchdog_intervals=2,
                                    max_retries=10, backoff_base=0.5)
        rec.fail_actuations("Worker", until=1e9)
        rec.request("Worker", 3)
        job.engine.run(1.0)
        stuck = rec.in_flight["Worker"]
        rec.on_adjustment_tick(violated=True)
        assert rec.escalations == 0  # below the threshold
        rec.on_adjustment_tick(violated=True)
        assert rec.escalations == 1
        assert stuck.superseded
        replacement = rec.in_flight["Worker"]
        assert replacement is not stuck
        assert replacement.escalated
        assert replacement.target == 4  # max(desired=3, 2 * current=4)
        assert any(
            r.branch == BRANCH_WATCHDOG_ESCALATION for r in sink.records
        )

    def test_watchdog_resets_on_satisfied_interval(self):
        job = deploy()
        rec, _ = make_reconciler(job, watchdog_intervals=2, max_retries=10)
        rec.fail_actuations("Worker", until=1e9)
        rec.request("Worker", 4)
        job.engine.run(1.0)
        rec.on_adjustment_tick(violated=True)
        rec.on_adjustment_tick(violated=False)  # resets the streak
        rec.on_adjustment_tick(violated=True)
        assert rec.escalations == 0

    def test_convergence_lag_and_summary(self):
        job = deploy()
        rec, _ = make_reconciler(job)
        rec.request("Worker", 5)
        assert rec.convergence_lag() == 3
        job.engine.run(1.0)
        assert rec.convergence_lag() == 0
        summary = rec.summary()
        assert summary["requests"] == 1 and summary["applied"] == 1
        assert summary["in_flight"] == 0
        assert summary["config"]["max_retries"] == 5
        json.dumps(summary)  # manifest-serializable

    def test_trace_records_are_valid_schema_v2(self):
        job = deploy()
        rec, sink = make_reconciler(job, trace=True, max_retries=1,
                                    backoff_base=0.5)
        rec.fail_actuations("Worker", until=0.7)
        rec.request("Worker", 4)
        job.engine.run(3.0)
        from repro.obs.trace import TraceRecord, validate_record_dict
        for record in sink.records:
            data = record.to_dict()
            assert validate_record_dict(data) == []
            assert data["schema"] == TRACE_SCHEMA_VERSION
            assert TraceRecord.from_dict(data).attempt == record.attempt


# ----------------------------------------------------------------------
# convergence regressions (issue 5): stale overwrite, dropped partials
# ----------------------------------------------------------------------


class TestReconcilerConvergenceRegressions:
    """The two convergence bugs that silently corrupt multi-seed sweeps."""

    def test_stale_retry_cannot_overwrite_newer_request(self):
        """A re-request while in flight must supersede the old request.

        Pre-fix, ``_issue`` overwrote ``in_flight[vertex]`` without
        marking the replaced request superseded: its retry callback —
        still on the heap with a long backoff — later applied the
        outdated target (4) over the newer one (6).
        """
        job = deploy()
        rec, _ = make_reconciler(job, backoff_base=5.0, max_retries=3)
        rec.fail_actuations("Worker", until=1.0)
        rec.request("Worker", 4)   # attempt fails at t=0.5; retry waits to t=5.5
        job.engine.run(1.2)
        assert rec.in_flight["Worker"].target == 4
        rec.request("Worker", 6)   # newer order while the old retry is pending
        job.engine.run(10.0)           # the stale retry fires at t=5.5
        assert job.runtime.vertex("Worker").target_parallelism == 6
        assert rec.applied == 1    # exactly one application — no double-apply
        assert rec.superseded_requests == 1
        assert rec.in_flight == {} and rec.desired == {}

    def test_partial_application_keeps_desired_and_lag(self):
        """Partial application must not be declared convergence.

        Scale-down to 2 while 3 additions are still pending: nothing is
        drainable (live parallelism sits at ``min_parallelism``), so the
        scheduler applies 0 of the requested -3. Pre-fix, ``_succeed``
        popped ``desired`` anyway and ``convergence_lag()`` under-reported
        0 forever after.
        """
        job = deploy(worker_min=2, n_workers=2)
        job.engine.run(0.5)
        job.scheduler.set_parallelism("Worker", 5)  # 3 additions pending
        rec, _ = make_reconciler(job)
        rec.request("Worker", 2)
        job.engine.run(0.6)  # request completes: live p == min, nothing drainable
        assert rec.partials == 1
        assert rec.desired == {"Worker": 2}
        assert rec.convergence_lag() == 3

    def test_partial_application_eventually_converges(self):
        """The kept remainder is re-issued and converges once drainable."""
        job = deploy(worker_min=2, n_workers=2)
        job.engine.run(0.5)
        job.scheduler.set_parallelism("Worker", 5)
        rec, _ = make_reconciler(job)
        rec.request("Worker", 2)
        job.engine.run(2.0)  # partial applied; the pending additions became live
        assert rec.convergence_lag() > 0
        rec.on_adjustment_tick(violated=False)  # re-issues the remainder
        job.engine.run(1.0)
        assert job.runtime.vertex("Worker").target_parallelism == 2
        assert rec.convergence_lag() == 0
        assert rec.desired == {} and rec.in_flight == {}
        assert rec.requests == 2  # the original and the re-issued remainder

    def test_full_application_still_clears_state(self):
        """The partial path must not leak state on ordinary successes."""
        job = deploy()
        rec, _ = make_reconciler(job)
        rec.request("Worker", 4)
        job.engine.run(1.0)
        assert rec.partials == 0
        assert rec.desired == {} and rec.in_flight == {}
        assert rec._partial_pending == set()
        rec.on_adjustment_tick(violated=False)  # nothing to re-issue
        assert rec.requests == 1


# ----------------------------------------------------------------------
# scaler / engine / builder integration
# ----------------------------------------------------------------------


class TestScalerIntegration:
    def test_in_flight_vertex_not_redecided(self):
        job = deploy(n_workers=4)
        job.engine.run(3.0)
        rec, _ = make_reconciler(
            job, provisioning_delay=Deterministic(100.0), timeout=200.0
        )
        policy = FakePolicy([
            decision_with({"Worker": 2}),  # scale-down: no inactivity phase
            decision_with({"Worker": 3}),
        ])
        scaler = ElasticScaler(
            job.engine.sim, job.scheduler, job.runtime, policy,
            recovery_cooldown=0.0,
        )
        scaler.trace_sink = DecisionTrace()
        scaler.reconciler = rec
        scaler.on_global_summary(None)
        assert rec.in_flight_vertices() == ["Worker"]
        scaler.on_global_summary(None)  # actuation still pending
        assert scaler.suppressed_in_flight == 1
        deferred = [
            r for r in scaler.trace_sink.records
            if r.branch == BRANCH_ACTUATION_PENDING and "deferred" in r.detail
        ]
        assert len(deferred) == 1
        assert rec.requests == 1  # the second decision issued nothing

    def test_engine_wires_reconciler_when_configured(self):
        pipeline = (
            PipelineBuilder("wired")
            .source(lambda now, rng: 1.0, rate=ConstantRate(50.0))
            .map("worker", lambda x: x, service=Deterministic(0.001))
            .sink()
            .constrain(bound=0.050)
            .actuate()
            .build()
        )
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        job = engine.submit(pipeline)
        assert job.reconciler is not None
        assert job.scaler is not None
        assert job.scaler.reconciler is job.reconciler

    def test_default_is_unsupervised(self):
        job = deploy()
        assert job.reconciler is None

    def test_builder_actuate_threads_config(self):
        pipeline = (
            PipelineBuilder("p")
            .source(lambda now, rng: 1.0, rate=ConstantRate(10.0))
            .map("worker", lambda x: x, service=Deterministic(0.001))
            .sink()
            .actuate(timeout=5.0, max_retries=8)
            .build()
        )
        assert pipeline.actuation.timeout == 5.0
        engine = StreamProcessingEngine(EngineConfig())
        job = engine.submit(pipeline)
        assert job.reconciler is not None
        assert job.reconciler.config.max_retries == 8

    def test_builder_actuate_rejects_config_plus_kwargs(self):
        with pytest.raises(TypeError):
            PipelineBuilder("p").actuate(ActuationConfig(), max_retries=2)

    def test_actuation_fault_noop_when_unsupervised(self):
        engine = StreamProcessingEngine(EngineConfig())
        plan = FaultPlan((ActuationFailure(at=0.5, duration=2.0),))
        job = engine.submit(make_linear_job(), fault_plan=plan)
        engine.run(1.0)
        assert (0.5, "actuation_failure", "*", "noop:supervision-disabled") \
            in job.fault_injector.trace()

    def test_actuation_fault_reaches_reconciler(self):
        engine = StreamProcessingEngine(EngineConfig())
        plan = FaultPlan((ActuationFailure(at=0.5, duration=2.0, vertex="Worker"),))
        job = engine.submit(make_linear_job(), fault_plan=plan, actuation=ActuationConfig())
        engine.run(1.0)
        assert job.reconciler._fault_active("Worker")
        kinds = [kind for _, kind, _, _ in job.fault_injector.trace()]
        assert "actuation_failure" in kinds
        engine.run(2.0)
        assert not job.reconciler._fault_active("Worker")
        kinds = [kind for _, kind, _, _ in job.fault_injector.trace()]
        assert "actuation_restored" in kinds


# ----------------------------------------------------------------------
# acceptance: chaos with actuation outage on the bottleneck vertex
# ----------------------------------------------------------------------


class TestActuationChaosAcceptance:
    def _fingerprint(self, engine, job):
        return {
            "trace": [record.to_dict() for record in job.trace.records],
            "faults": job.fault_injector.trace(),
            "scaling": [(e.time, e.applied) for e in job.scaler.events],
            "scale_ups": job.scheduler.scale_ups,
            "scale_downs": job.scheduler.scale_downs,
            "parallelism": {
                name: rv.target_parallelism
                for name, rv in job.runtime.vertices.items()
            },
            "summary": job.reconciler.summary(),
        }

    def test_outage_is_survived_and_constraint_recovers(self):
        engine, job = run_actuation_chaos()
        rec = job.reconciler
        # the outage made attempts fail and the reconciler retried
        assert rec.failures > 0 and rec.retries > 0
        # the watchdog escalated while the constraint lagged
        assert rec.escalations >= 1
        # ...and actuation eventually converged: nothing left in flight
        assert rec.in_flight == {}
        assert rec.convergence_lag() == 0
        # the constraint is satisfied again at the end of the run
        tracker = job.trackers[0]
        recent = tracker.history[-4:]
        assert recent and not any(violated for _, _, violated in recent)

    def test_same_seed_is_byte_identical(self):
        observability = ObservabilityConfig(metrics=True, trace=True)
        first = self._fingerprint(*run_actuation_chaos(observability=observability))
        second = self._fingerprint(*run_actuation_chaos(observability=observability))
        assert any(r["branch"] == BRANCH_RETRY_BACKOFF for r in first["trace"])
        assert first == second

    def test_unsupervised_run_unchanged_by_actuation_faults(self):
        """ActuationFailure on an unsupervised job must not perturb scaling."""
        def run(with_fault):
            builder = (
                PipelineBuilder("baseline")
                .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
                .map("worker", lambda x: x, service=Gamma(0.004, 0.7),
                     parallelism=(4, 1, 32))
                .sink()
                .constrain(bound=0.030)
            )
            if with_fault:
                builder.inject(
                    ActuationFailure(at=25.0, duration=20.0, vertex="worker"),
                    seed=0,
                )
            engine = StreamProcessingEngine(EngineConfig(elastic=True, seed=7))
            job = engine.submit(builder.build())
            engine.run(80.0)
            return (
                (job.scheduler.scale_ups, job.scheduler.scale_downs),
                [(e.time, e.applied) for e in job.scaler.events],
            )

        assert run(with_fault=False) == run(with_fault=True)

    def test_manifest_carries_actuation_summary(self):
        from repro.obs.manifest import build_manifest
        engine, job = run_actuation_chaos(duration=60.0)
        manifest = build_manifest(job)
        assert manifest.data["actuation"]["requests"] > 0
        # unsupervised jobs keep the pre-actuation manifest layout
        plain_job = deploy()
        plain_job.engine.run(1.0)
        plain = build_manifest(plain_job)
        assert "actuation" not in plain.data
