"""Stateful operators: keyed state, checkpoints, migrations, the gate.

Covers the state subsystem bottom-up: :class:`KeyedState` partitioning
and migration plans as pure data structures, the builder's
``stateful()`` declaration, checkpoint-restore crash recovery with
replay charged to latency, the reconciler's multi-phase migration
protocol (including mid-transfer failure and lossless rollback), the
migration-aware policy gate, and the crash-during-migration interaction
(a worker loss landing while a transfer is in flight must abort it
deterministically without leaking slots or state).
"""

from __future__ import annotations

import pytest

from conftest import rank_partition_bytes
from repro.builder import PipelineBuilder
from repro.core.latency_model import MigrationCostModel, expected_migration_pause
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.state import (
    KeyedState,
    StatefulVertexSpec,
    stable_key_hash,
)
from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.simulation.faults import (
    MigrationFailure,
    ServiceSpike,
    TaskCrash,
    WorkerLoss,
)
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate


# ----------------------------------------------------------------------
# KeyedState: pure partitioning / migration-plan behavior
# ----------------------------------------------------------------------


def _digest(rank):
    return stable_key_hash(f"k{rank:04d}")


def make_state(parallelism, n_keys, nbytes=0):
    """A vertex's keyed state over ``n_keys`` Zipf ranks, each at ``nbytes``."""
    state = KeyedState("v", parallelism, [_digest(rank) for rank in range(n_keys)])
    state.bytes[:] = [nbytes] * n_keys
    return state


class TestKeyedState:
    def test_keys_land_on_their_hash_partition(self):
        state = make_state(4, 20, nbytes=10)
        empty = [0] * 20
        for index in range(4):
            before = list(state.bytes)
            lost = state.restore_partition(index, empty)
            zeroed = [rank for rank in range(20) if before[rank] and not state.bytes[rank]]
            assert zeroed == [rank for rank in range(20) if _digest(rank) % 4 == index]
            assert lost == 10 * len(zeroed)
        assert state.key_count == 0

    def test_totals_sum_over_partitions(self):
        state = make_state(3, 20, nbytes=8)
        assert state.total_bytes == 160
        assert state.key_count == 20
        assert sum(rank_partition_bytes(state)) == 160
        state.bytes[5] = 0  # a rank without bytes holds no key
        assert (state.key_count, state.total_bytes) == (19, 152)

    def test_plan_counts_exactly_the_relocating_keys(self):
        state = make_state(2, 50, nbytes=4)
        plan = state.plan_migration(5)
        moved = [rank for rank in range(50) if _digest(rank) % 5 != _digest(rank) % 2]
        assert 0 < len(moved) < 50
        assert plan.moved_bytes == 4 * len(moved)
        # planning never mutates
        assert state.parallelism == 2
        assert state.bytes == [4] * 50

    def test_apply_then_rollback_is_lossless(self):
        state = make_state(3, 40)
        state.bytes[:] = [rank + 1 for rank in range(40)]
        before = list(state.bytes)
        plan = state.plan_migration(7)
        state.apply(plan)
        assert state.parallelism == 7
        assert state.bytes == before
        state.rollback(plan)
        assert state.parallelism == 3
        assert state.bytes == before

    def test_rollback_never_resurrects_crash_lost_state(self):
        """A crash mutating state mid-migration survives the rollback."""
        state = make_state(2, 10, nbytes=100)
        plan = state.plan_migration(4)
        # crash loses one partition's content while the transfer is in
        # flight; the rollback only restores the old parallelism
        assert state.restore_partition(0, [0] * 10) > 0
        survivors = list(state.bytes)
        state.rollback(plan)
        assert state.bytes == survivors

    def test_repartition_to_same_parallelism_moves_nothing(self):
        state = make_state(4, 8, nbytes=10)
        assert state.repartition(4) == 0

    def test_restore_partition_resets_only_that_partition(self):
        state = make_state(2, 12, nbytes=10)
        checkpoint = state.snapshot()
        for rank in range(12):
            state.bytes[rank] += 10  # growth since the checkpoint
        lost = state.restore_partition(0, checkpoint)
        p0 = [rank for rank in range(12) if _digest(rank) % 2 == 0]
        assert lost == 10 * len(p0)  # the un-checkpointed deltas
        # partition 0 is back at its checkpoint; partition 1 keeps its growth
        assert state.bytes == [10 if rank in p0 else 20 for rank in range(12)]
        assert checkpoint == [10] * 12

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="parallelism"):
            make_state(0, 4)
        state = make_state(2, 4)
        with pytest.raises(ValueError, match="new_parallelism"):
            state.plan_migration(0)
        with pytest.raises(ValueError, match="out of range"):
            state.restore_partition(5, [0] * 4)


class TestStatefulVertexSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_keys"):
            StatefulVertexSpec(n_keys=0)
        with pytest.raises(ValueError, match="bytes_per_event"):
            StatefulVertexSpec(bytes_per_event=-1)

    def test_describe_is_deterministic_and_complete(self):
        spec = StatefulVertexSpec(n_keys=32, bytes_per_event=48)
        described = spec.describe()
        assert described["n_keys"] == 32
        assert described["bytes_per_event"] == 48
        assert list(described) == [
            "n_keys", "zipf_s", "bytes_per_event", "replay_factor", "cost"]
        assert "transfer_bytes_per_s" in described["cost"]


class TestBuilderStateful:
    def _base(self):
        return (
            PipelineBuilder("p")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(10.0))
            .map("worker", lambda x: x)
            .sink()
        )

    def test_defaults_to_the_last_added_vertex(self):
        pipeline = (
            PipelineBuilder("p")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(10.0))
            .map("agg", lambda x: x)
            .stateful(n_keys=16)
            .sink()
            .build()
        )
        assert set(pipeline.stateful) == {"agg"}
        assert pipeline.stateful["agg"].n_keys == 16

    def test_rejects_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            self._base().stateful("nope")

    def test_rejects_source_vertices(self):
        with pytest.raises(ValueError, match="source"):
            self._base().stateful("source")

    def test_rejects_spec_plus_kwargs(self):
        with pytest.raises(TypeError):
            self._base().stateful("worker", spec=StatefulVertexSpec(), n_keys=8)


# ----------------------------------------------------------------------
# integration scenarios
# ----------------------------------------------------------------------


def run_stateful(
    duration=40.0,
    seed=7,
    faults=(),
    stateful=True,
    checkpoint_interval=10.0,
    cost=None,
    export_dir=None,
    rate=400.0,
):
    builder = (
        PipelineBuilder("state-test")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(rate))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030, name="e2e")
    )
    if stateful:
        kwargs = {"cost": cost} if cost is not None else {}
        builder.stateful("worker", **kwargs)
    for fault in faults:
        builder.inject(fault)
    builder.actuate()
    if export_dir is not None:
        builder.observe(export_dir=export_dir, pin_wall_time=True)
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=seed, checkpoint_interval=checkpoint_interval)
    )
    job = engine.submit(builder.build())
    engine.run(duration)
    if export_dir is not None:
        engine.export_run()
    return engine, job


class TestCheckpointRestore:
    def test_crash_restores_checkpoint_and_charges_replay(self):
        engine, job = run_stateful(
            duration=25.0,
            faults=(TaskCrash(at=15.0, vertex="worker", restart_delay=1.0),),
        )
        manager = job.state_manager
        assert manager.crash_recoveries == 1
        # last checkpoint before the crash fired at t=10; the replay
        # charge is REPLAY_FACTOR (0.5) * the 5 s of lost progress
        assert manager.recovery_time_s == pytest.approx(2.5, abs=0.2)
        assert manager.checkpoints >= 2
        # crashed tasks recover parallelism afterwards
        rv = job.runtime.vertices["worker"]
        assert rv.parallelism == rv.target_parallelism

    def test_shorter_checkpoint_interval_buys_faster_recovery(self):
        """The checkpoint-interval knob trades pauses against recovery."""
        # crash at 14: the frequent config restored a t=12 checkpoint
        # (2 s of replay debt), the sparse one has only the implicit
        # empty t=0 checkpoint (14 s of replay debt)
        crash = (TaskCrash(at=14.0, vertex="worker", restart_delay=1.0),)
        _, frequent = run_stateful(duration=25.0, faults=crash, checkpoint_interval=4.0)
        _, sparse = run_stateful(duration=25.0, faults=crash, checkpoint_interval=16.0)
        assert frequent.state_manager.checkpoints > sparse.state_manager.checkpoints
        assert (
            frequent.state_manager.recovery_time_s
            < sparse.state_manager.recovery_time_s
        )
        assert (
            frequent.state_manager.checkpoint_pause_s
            > sparse.state_manager.checkpoint_pause_s
        )

    def test_stateless_runs_never_touch_the_state_machinery(self):
        engine, job = run_stateful(stateful=False)
        assert job.state_manager is None
        assert job.reconciler.state_manager is None


class TestStateGrowth:
    """Each processed event grows one Zipf-drawn key by ``bytes_per_event``.

    An event is only counted, its key drawn when the state is read, so the
    state must account for every event the vertex processed while its
    tasks run no per-item probe.
    """

    @staticmethod
    def _run(**spec):
        pipeline = (
            PipelineBuilder("growth")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(200.0))
            .map("worker", lambda x: x, service=Gamma(0.002, 0.5), parallelism=2)
            .stateful(**spec)
            .sink()
            .build()
        )
        engine = StreamProcessingEngine(EngineConfig(seed=3))
        job = engine.submit(pipeline)
        engine.run(10.0)
        tasks = job.runtime.vertices["worker"].tasks
        assert tasks and all(t.process_probe is None for t in tasks)
        return job.state_manager, sum(t.items_processed for t in tasks)

    def test_zipf_keys_count_every_event(self):
        manager, processed = self._run(n_keys=32, bytes_per_event=8)
        state = manager.keyed_state("worker")
        assert processed > 1000 and state.total_bytes == 8 * processed
        assert len(state.bytes) == 32 and 0 < state.key_count <= 32

    @pytest.mark.parametrize("n_keys", [32], ids=["zipf"])
    def test_zero_bytes_per_event_grow_nothing(self, n_keys):
        manager, processed = self._run(n_keys=n_keys, bytes_per_event=0)
        assert processed > 1000 and manager.keyed_state("worker").key_count == 0
        assert manager._vertices["worker"].tasks == []


class TestMigrationLifecycle:
    def test_spike_forces_a_paid_migration(self):
        engine, job = run_stateful(
            duration=30.0,
            faults=(ServiceSpike(at=8.0, vertex="worker", factor=3.0, duration=10.0),),
        )
        manager = job.state_manager
        assert manager.migrations_completed >= 1
        assert manager.state_migrated_bytes > 0
        assert manager.migration_pause_s > 0
        assert job.reconciler.summary()["migrations"]["applied"] >= 1

    def test_fault_window_rolls_back_without_state_loss(self):
        engine, job = run_stateful(
            duration=40.0,
            faults=(
                ServiceSpike(at=8.0, vertex="worker", factor=3.0, duration=15.0),
                MigrationFailure(at=9.0, duration=12.0, vertex="worker"),
            ),
        )
        manager = job.state_manager
        assert manager.migrations_rolled_back >= 1
        assert job.reconciler.summary()["migrations"]["rolled_back"] >= 1
        # rollback is lossless: only crashes lose bytes, and none ran
        assert manager.state_lost_bytes == 0
        assert manager.crash_recoveries == 0

    def test_same_seed_runs_are_identical(self):
        scenario = dict(
            duration=40.0,
            faults=(
                ServiceSpike(at=8.0, vertex="worker", factor=3.0, duration=15.0),
                MigrationFailure(at=9.0, duration=10.0, vertex="worker"),
                TaskCrash(at=25.0, vertex="worker", restart_delay=1.0),
            ),
        )
        _, a = run_stateful(**scenario)
        _, b = run_stateful(**scenario)
        assert a.state_manager.summary() == b.state_manager.summary()
        assert a.reconciler.summary() == b.reconciler.summary()


class TestMigrationGate:
    def test_gate_defers_rescales_the_stateless_model_issues(self, tmp_path):
        """The acceptance scenario: at least one rescale is deferred
        because its modeled pause would eat the remaining slack."""
        import json

        scenario = dict(
            duration=30.0,
            faults=(ServiceSpike(at=8.0, vertex="worker", factor=2.0, duration=12.0),),
            export_dir=str(tmp_path / "obs"),
        )
        engine, job = run_stateful(**scenario)
        manager = job.state_manager
        assert manager.migrations_deferred >= 1
        branches = []
        with open(tmp_path / "obs" / "trace.jsonl") as handle:
            for line in handle:
                branches.append(json.loads(line))
        deferred = [r for r in branches if r["branch"] == "migration-deferred"]
        assert deferred, "no migration-deferred record in the decision trace"
        for record in deferred:
            assert record["schema"] == TRACE_SCHEMA_VERSION
            assert record["vertex"] == "worker"
            assert record["state_bytes"] > 0

    def test_gate_lets_violating_rescales_proceed(self):
        """Once the bound is already violated there is nothing left to
        protect — the gate must not wedge the pipeline undersized."""
        engine, job = run_stateful(
            duration=30.0,
            faults=(ServiceSpike(at=8.0, vertex="worker", factor=3.0, duration=12.0),),
        )
        assert job.state_manager.migrations_started >= 1

    def test_migration_cost_is_silent_for_noop_and_stateless(self):
        engine, job = run_stateful(duration=5.0)
        manager = job.state_manager
        assert manager.migration_cost("worker", 4, 4) is None
        assert manager.migration_cost("sink", 1, 2) is None
        before = (manager.migrations_started, manager.summary())
        assessment = manager.migration_cost("worker", 4, 8)
        assert assessment is not None
        pause, moved = assessment
        spec = manager.spec("worker")
        assert pause == pytest.approx(expected_migration_pause(moved, spec.cost))
        assert (manager.migrations_started, manager.summary()) == before


class TestCrashDuringMigration:
    """A worker loss landing while a state transfer is in flight."""

    #: slow transfer so every rescale's migration spans whole seconds —
    #: the worker loss below lands mid-transfer (first migration starts
    #: just past t=10 and transfers for several seconds)
    SLOW = MigrationCostModel(transfer_bytes_per_s=1e5, jitter_cv=0.0)

    def _scenario(self):
        return dict(
            duration=30.0,
            faults=(
                ServiceSpike(at=5.0, vertex="worker", factor=3.0, duration=12.0),
                WorkerLoss(at=12.0, restart_delay=1.0),
            ),
            cost=self.SLOW,
        )

    def test_in_flight_migration_aborts_and_rolls_back(self):
        engine, job = run_stateful(**self._scenario())
        manager = job.state_manager
        assert manager.migrations_started >= 1
        # the crash aborts the in-flight transfer; it rolls back instead
        # of applying a layout planned against pre-crash state
        assert manager.migrations_rolled_back >= 1
        # every migration is accounted for: applied, rolled back, or
        # superseded (planned but dropped) — none vanish
        assert manager.migrations_started >= (
            manager.migrations_completed + manager.migrations_rolled_back
        )

    def test_no_slots_leak_and_parallelism_converges(self):
        engine, job = run_stateful(**self._scenario())
        resources = engine.resources
        active = sum(
            len(rv.active_tasks()) for rv in job.runtime.vertices.values()
        )
        assert resources.active_tasks == active
        assert (
            sum(w.used_slots for w in resources.leased_worker_list())
            == resources.active_tasks
        )
        for name, rv in job.runtime.vertices.items():
            assert rv.parallelism == rv.target_parallelism, name

    def test_the_interaction_is_deterministic(self):
        _, a = run_stateful(**self._scenario())
        _, b = run_stateful(**self._scenario())
        assert a.state_manager.summary() == b.state_manager.summary()
        assert a.reconciler.summary() == b.reconciler.summary()


def test_placement_hash_runs_only_when_a_vertex_state_is_built(monkeypatch):
    """Plans, migrations, checkpoints and restores hash no key."""
    import golden_stateful_scenario
    from repro.engine import state as state_module

    hashed = []
    real = state_module.stable_key_hash
    monkeypatch.setattr(state_module, "stable_key_hash",
                        lambda key: hashed.append(key) or real(key))
    _engine, job = golden_stateful_scenario.run_job()
    manager = job.state_manager
    assert manager.migrations_started > 0 and manager.crash_recoveries > 0
    assert hashed == [f"k{rank:04d}" for rank in range(manager.spec("worker").n_keys)]
