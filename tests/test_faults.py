"""Fault injection: determinism, graceful degradation, unit behavior.

The acceptance scenario from the issue: a task crash at t=30 s plus a
QoS measurement dropout, run twice with the same seed, must produce
byte-identical fault traces, scaling logs and final parallelism — and
the scaler must never issue a scale-down while its measurements are
stale.
"""

from __future__ import annotations

import pytest

from repro.builder import PipelineBuilder
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.simulation.faults import (
    FaultInjector,
    FaultPlan,
    MeasurementDropout,
    ServiceSpike,
    TaskCrash,
    WorkerLoss,
)
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate

from conftest import make_linear_job


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def build_chaos_pipeline(rate: float = 400.0, fault_seed: int = 0):
    """The issue's acceptance pipeline: crash at t=30 + dropout at t=30."""
    return (
        PipelineBuilder("chaos")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(rate))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030)
        .inject(
            TaskCrash(at=30.0, vertex="worker", restart_delay=2.0),
            MeasurementDropout(at=30.0, duration=20.0),
            seed=fault_seed,
        )
        .build()
    )


def run_chaos(duration: float = 80.0, engine_seed: int = 7, fault_seed: int = 0):
    """Run the acceptance scenario; returns (engine, job)."""
    pipeline = build_chaos_pipeline(fault_seed=fault_seed)
    engine = StreamProcessingEngine(EngineConfig(elastic=True, seed=engine_seed))
    job = engine.submit(pipeline)
    engine.run(duration)
    return engine, job


def deploy_faulty_linear(plan: FaultPlan, duration: float = 0.0, **job_kwargs):
    """Submit a (fixed-parallelism) linear job with a fault plan armed."""
    engine = StreamProcessingEngine(EngineConfig())
    graph = make_linear_job(**job_kwargs)
    job = engine.submit(graph, fault_plan=plan)
    if duration > 0:
        engine.run(duration)
    return engine, job


# ----------------------------------------------------------------------
# acceptance: deterministic chaos, graceful degradation
# ----------------------------------------------------------------------


class TestChaosAcceptance:
    def _fingerprint(self, engine, job):
        return {
            "faults": job.fault_injector.trace(),
            "scaler_events": [(e.time, e.applied) for e in job.scaler.events],
            "scheduler": (
                job.scheduler.scale_ups,
                job.scheduler.scale_downs,
                job.scheduler.task_failures,
                job.scheduler.task_restarts,
            ),
            "parallelism": {
                name: rv.parallelism for name, rv in job.runtime.vertices.items()
            },
            "targets": {
                name: rv.target_parallelism
                for name, rv in job.runtime.vertices.items()
            },
        }

    def test_same_seed_is_byte_identical(self):
        first = self._fingerprint(*run_chaos())
        second = self._fingerprint(*run_chaos())
        assert first == second

    def test_fault_seed_changes_only_victim_choice(self):
        _, job_a = run_chaos(fault_seed=0)
        _, job_b = run_chaos(fault_seed=1)
        kinds_a = [kind for _, kind, _, _ in job_a.fault_injector.trace()]
        kinds_b = [kind for _, kind, _, _ in job_b.fault_injector.trace()]
        assert kinds_a == kinds_b  # same schedule, possibly different victims

    def test_crash_and_dropout_fire(self):
        _, job = run_chaos()
        kinds = [kind for _, kind, _, _ in job.fault_injector.trace()]
        assert "task_crash" in kinds
        assert "measurement_dropout" in kinds
        assert "task_restart" in kinds
        assert "measurement_restored" in kinds

    def test_no_scale_down_from_stale_measurements(self):
        engine, job = run_chaos()
        # the staleness gate actually engaged during the dropout...
        assert job.scaler.skipped_stale > 0
        # ...and no scale-down was issued while measurements were stale:
        # between the dropout start (t=30) and the moment fresh data
        # returns (t=50), the scaler may only scale up — never shrink.
        for event in job.scaler.events:
            for vertex, delta in event.applied.items():
                if 30.0 <= event.time < 50.0:
                    assert delta >= 0, (
                        f"scale-down of {vertex} at t={event.time} during dropout"
                    )

    def test_restart_restores_parallelism(self):
        _, job = run_chaos()
        rv = job.runtime.vertex("worker")
        assert rv.crashes == 1
        # the crash never reduced the target, and the restart restored
        # the live parallelism to it
        assert rv.parallelism >= 1
        assert rv.parallelism == rv.target_parallelism


# ----------------------------------------------------------------------
# task crash / restart mechanics
# ----------------------------------------------------------------------


class TestTaskCrash:
    def test_crash_without_restart_loses_parallelism(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=None),))
        _, job = deploy_faulty_linear(plan, duration=6.0, n_workers=2)
        rv = job.runtime.vertex("Worker")
        assert rv.crashes == 1
        assert rv.parallelism == 1
        assert [kind for _, kind, _, _ in job.fault_injector.trace()] == ["task_crash"]

    def test_crash_with_restart_recovers(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=1.5),))
        _, job = deploy_faulty_linear(plan, duration=8.0, n_workers=2)
        rv = job.runtime.vertex("Worker")
        assert rv.crashes == 1
        assert rv.parallelism == 2
        trace = job.fault_injector.trace()
        assert trace[0][1] == "task_crash"
        assert trace[1] == (3.5, "task_restart", trace[0][2], "")

    def test_target_parallelism_stable_during_restart_gap(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=3.0),))
        engine, job = deploy_faulty_linear(plan, n_workers=2)
        engine.run(3.0)  # crash happened, restart pending
        rv = job.runtime.vertex("Worker")
        assert rv.parallelism == 1
        assert rv.target_parallelism == 2  # scaler sees no hole to fill

    def test_subtask_picks_exact_victim(self):
        plan = FaultPlan(
            (TaskCrash(at=2.0, vertex="Worker", subtask=1, restart_delay=None),)
        )
        _, job = deploy_faulty_linear(plan, duration=4.0, n_workers=3)
        (record,) = job.fault_injector.trace()
        assert record[2] == "Worker[1]"

    def test_restarted_task_gets_fresh_qos_reporter(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=1.0),))
        _, job = deploy_faulty_linear(plan, duration=8.0, n_workers=2)
        live_uids = {t.uid for t in job.runtime.vertex("Worker").active_tasks()}
        registered = set()
        for manager in job._managers:
            registered.update(
                task.uid for task, _r, _w in manager._tasks.values()
            )
        assert live_uids <= registered

    def test_crashed_task_counts_as_failure_not_drain(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=None),))
        _, job = deploy_faulty_linear(plan, duration=4.0, n_workers=2)
        assert job.scheduler.task_failures == 1
        assert job.scheduler.scale_downs == 0
        (time, kind, label, _detail), = job.fault_injector.trace()
        assert time == 2.0 and kind == "task_crash" and label.startswith("Worker[")

    def test_crash_on_missing_vertex_raises(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Nope"),))
        engine, job = deploy_faulty_linear(plan)
        with pytest.raises(KeyError):
            engine.run(4.0)


# ----------------------------------------------------------------------
# worker loss
# ----------------------------------------------------------------------


class TestWorkerLoss:
    def test_worker_loss_crashes_all_hosted_tasks(self):
        plan = FaultPlan((WorkerLoss(at=2.0, worker_index=0, restart_delay=None),))
        engine, job = deploy_faulty_linear(plan, duration=5.0, n_workers=2)
        (record,) = job.fault_injector.trace()
        assert record[1] == "worker_loss"
        lost = int(record[3].split(",")[0].split("=")[1])
        assert lost >= 1
        assert sum(rv.crashes for rv in job.runtime.vertices.values()) == lost

    def test_worker_loss_with_restart_recovers_parallelism(self):
        plan = FaultPlan((WorkerLoss(at=2.0, worker_index=0, restart_delay=1.0),))
        _, job = deploy_faulty_linear(plan, duration=8.0, n_workers=2)
        for name, rv in job.runtime.vertices.items():
            assert rv.parallelism == rv.target_parallelism, name
        kinds = [kind for _, kind, _, _ in job.fault_injector.trace()]
        assert kinds == ["worker_loss", "worker_restart"]

    def test_out_of_range_index_is_noop(self):
        plan = FaultPlan((WorkerLoss(at=2.0, worker_index=99),))
        _, job = deploy_faulty_linear(plan, duration=4.0)
        (record,) = job.fault_injector.trace()
        assert record[3].startswith("noop:")
        assert all(rv.crashes == 0 for rv in job.runtime.vertices.values())


# ----------------------------------------------------------------------
# measurement dropout / staleness
# ----------------------------------------------------------------------


class TestMeasurementDropout:
    def test_dropout_suppresses_collection_and_raises_staleness(self):
        plan = FaultPlan((MeasurementDropout(at=2.0, duration=4.0),))
        engine, job = deploy_faulty_linear(plan)
        engine.run(5.0)
        assert any(m.dropped_collects > 0 for m in job._managers)
        staleness = max(m.staleness(engine.sim.now) for m in job._managers)
        assert staleness > 1.0
        engine.run(5.0)  # past the dropout: fresh measurements resume
        staleness = max(m.staleness(engine.sim.now) for m in job._managers)
        assert staleness < 2.0

    def test_summaries_carry_staleness(self):
        plan = FaultPlan((MeasurementDropout(at=2.0, duration=6.0),))
        engine, job = deploy_faulty_linear(plan)
        engine.run(7.0)
        summary = job.last_summary
        assert summary is not None
        worst = max(vs.staleness for vs in summary.vertices.values())
        assert worst > 1.0

    def test_fault_free_staleness_is_negligible(self):
        engine, job = deploy_faulty_linear(FaultPlan(), duration=12.0)
        assert job.fault_injector is None  # empty plan is not armed
        summary = job.last_summary
        assert summary is not None
        assert all(vs.staleness < 0.1 for vs in summary.vertices.values())


# ----------------------------------------------------------------------
# service spike
# ----------------------------------------------------------------------


class TestServiceSpike:
    def test_spike_applies_and_restores_multiplier(self):
        plan = FaultPlan(
            (ServiceSpike(at=2.0, vertex="Worker", factor=4.0, duration=3.0),)
        )
        engine, job = deploy_faulty_linear(plan, n_workers=2)
        engine.run(3.0)
        rv = job.runtime.vertex("Worker")
        assert all(t.service_multiplier == 4.0 for t in rv.active_tasks())
        engine.run(4.0)
        assert all(t.service_multiplier == 1.0 for t in rv.active_tasks())
        kinds = [kind for _, kind, _, _ in job.fault_injector.trace()]
        assert kinds == ["service_spike", "service_spike_end"]

    def test_spike_inflates_measured_service_time(self):
        plan = FaultPlan(
            (ServiceSpike(at=5.0, vertex="Worker", factor=5.0, duration=30.0),)
        )
        engine, job = deploy_faulty_linear(
            plan, duration=30.0, source_rate=50.0, service_mean=0.002
        )
        summary = job.last_summary
        assert summary.vertices["Worker"].service_mean > 0.005


# ----------------------------------------------------------------------
# recovery cooldown
# ----------------------------------------------------------------------


class TestRecoveryCooldown:
    def test_notify_starts_and_extends_cooldown(self):
        engine, job = run_chaos(duration=10.0)
        scaler = job.scaler
        assert not scaler.in_recovery_cooldown
        scaler.notify_fault_recovery()
        assert scaler.in_recovery_cooldown
        assert scaler._no_scale_down_until == engine.sim.now + scaler.recovery_cooldown

    def test_cooldown_engaged_by_acceptance_run(self):
        _, job = run_chaos()
        assert job.scaler.suppressed_scale_downs >= 0
        # the last fault notification was measurement_restored at t=50,
        # so the cooldown covered at least (50, 50+cooldown)
        restored = [t for t, k, _, _ in job.fault_injector.trace()
                    if k == "measurement_restored"]
        assert restored == [50.0]


# ----------------------------------------------------------------------
# plan validation and arming
# ----------------------------------------------------------------------


class TestPlanValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            FaultPlan((TaskCrash(at=-1.0, vertex="w"),))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError, match="duration must be > 0"):
            FaultPlan((MeasurementDropout(at=1.0, duration=0.0),))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValueError, match="factor must be > 0"):
            FaultPlan((ServiceSpike(at=1.0, vertex="w", factor=0.0),))

    def test_negative_restart_delay_rejected(self):
        with pytest.raises(ValueError, match="restart_delay must be >= 0"):
            FaultPlan((TaskCrash(at=1.0, vertex="w", restart_delay=-0.5),))
        with pytest.raises(ValueError, match="restart_delay must be >= 0"):
            FaultPlan((WorkerLoss(at=1.0, restart_delay=-1.0),))
        # None (no restart) and zero (immediate) both stay legal
        FaultPlan((TaskCrash(at=1.0, vertex="w", restart_delay=None),))
        FaultPlan((TaskCrash(at=1.0, vertex="w", restart_delay=0.0),))

    def test_builder_rejects_unknown_vertex(self):
        builder = (
            PipelineBuilder("p")
            .source(lambda now, rng: 1, rate=ConstantRate(10.0))
            .map("worker", lambda x: x, parallelism=2)
            .sink()
            .constrain(bound=0.030)
            .inject(TaskCrash(at=5.0, vertex="typo"))
        )
        with pytest.raises(ValueError, match="unknown vertex 'typo'"):
            builder.build()

    def test_arming_past_fault_raises(self):
        plan = FaultPlan((TaskCrash(at=1.0, vertex="Worker"),))
        engine, job = deploy_faulty_linear(FaultPlan())
        engine.run(5.0)
        with pytest.raises(ValueError, match="lies in the past"):
            FaultInjector(plan, job).arm()

    def test_arm_is_idempotent(self):
        plan = FaultPlan((TaskCrash(at=2.0, vertex="Worker", restart_delay=None),))
        engine, job = deploy_faulty_linear(plan)
        job.fault_injector.arm()  # second arm: no duplicate events
        engine.run(4.0)
        assert len(job.fault_injector.trace()) == 1


# ----------------------------------------------------------------------
# recorder integration
# ----------------------------------------------------------------------


class TestRecorderIntegration:
    def test_recorder_captures_fault_rows(self):
        from repro.experiments.recording import SeriesRecorder

        pipeline = build_chaos_pipeline()
        engine = StreamProcessingEngine(EngineConfig(elastic=True, seed=7))
        recorder = SeriesRecorder(engine, interval=5.0)
        engine.submit(pipeline)
        engine.run(60.0)
        series = recorder.fault_series()
        kinds = [kind for _, kind, _, _ in series]
        assert "task_crash" in kinds and "measurement_dropout" in kinds
        # each fault lands in exactly one row (cursor advances, no dupes)
        assert len(series) == len(set(series))
