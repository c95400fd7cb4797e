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


class TestKeyedState:
    def test_keys_land_on_their_hash_partition(self):
        state = KeyedState("v", 4)
        for key in ("a", "b", 17, ("t", 3)):
            state.add(key, 10)
            expected = stable_key_hash(key) % 4
            assert state.partition_of(key) == expected
            assert state._partitions[expected][key] == 10

    def test_add_accumulates_and_negative_deltas_evict(self):
        state = KeyedState("v", 2)
        state.add("k", 30)
        state.add("k", 20)
        assert state.items() == {"k": 50}
        state.add("k", -50)
        assert state.items() == {}
        assert state.key_count == 0

    def test_totals_sum_over_partitions(self):
        state = KeyedState("v", 3)
        for i in range(20):
            state.add(f"k{i}", 8)
        assert state.total_bytes == 160
        assert state.key_count == 20
        assert sum(state.items().values()) == 160

    def test_plan_counts_exactly_the_relocating_keys(self):
        state = KeyedState("v", 2)
        for i in range(50):
            state.add(f"k{i}", 4)
        plan = state.plan_migration(5)
        expected_moved = {
            key
            for key in state.items()
            if stable_key_hash(key) % 5 != stable_key_hash(key) % 2
        }
        assert set(plan.moved_keys) == expected_moved
        assert plan.moved_bytes == 4 * len(expected_moved)
        # planning never mutates
        assert state.parallelism == 2

    def test_apply_then_rollback_is_lossless(self):
        state = KeyedState("v", 3)
        for i in range(40):
            state.add(f"k{i}", i + 1)
        before = state.items()
        plan = state.plan_migration(7)
        state.apply(plan)
        assert state.parallelism == 7
        assert state.items() == before
        state.rollback(plan)
        assert state.parallelism == 3
        assert state.items() == before

    def test_rollback_never_resurrects_crash_lost_state(self):
        """A crash mutating state mid-migration survives the rollback."""
        state = KeyedState("v", 2)
        for i in range(10):
            state.add(f"k{i}", 100)
        plan = state.plan_migration(4)
        # crash loses one partition's content while the transfer is in
        # flight; the rollback rebuilds the old layout from live content
        state.restore_partition(0, {})
        survivors = state.items()
        state.rollback(plan)
        assert state.items() == survivors

    def test_repartition_to_same_parallelism_moves_nothing(self):
        state = KeyedState("v", 4)
        state.add("k", 10)
        assert state.repartition(4) == 0

    def test_restore_partition_resets_only_that_partition(self):
        state = KeyedState("v", 2)
        for i in range(12):
            state.add(f"k{i}", 10)
        checkpoint = state.snapshot()
        for i in range(12):
            state.add(f"k{i}", 10)  # growth since the checkpoint
        lost = state.restore_partition(0, checkpoint)
        p0_keys = [k for k in checkpoint if stable_key_hash(k) % 2 == 0]
        assert lost == 10 * len(p0_keys)  # the un-checkpointed deltas
        restored = state.items()
        assert sum(restored[k] for k in p0_keys) == 10 * len(p0_keys)
        # partition 1 keeps its post-checkpoint growth
        p1_keys = [k for k in checkpoint if stable_key_hash(k) % 2 == 1]
        assert sum(restored[k] for k in p1_keys) == 20 * len(p1_keys)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="parallelism"):
            KeyedState("v", 0)
        state = KeyedState("v", 2)
        with pytest.raises(ValueError, match="new_parallelism"):
            state.plan_migration(0)
        with pytest.raises(ValueError, match="out of range"):
            state.restore_partition(5, {})


class TestStatefulVertexSpec:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_keys"):
            StatefulVertexSpec(n_keys=0)
        with pytest.raises(ValueError, match="bytes_per_event"):
            StatefulVertexSpec(bytes_per_event=-1)
        with pytest.raises(ValueError, match="replay_factor"):
            StatefulVertexSpec(replay_factor=-0.1)

    def test_describe_is_deterministic_and_complete(self):
        spec = StatefulVertexSpec(n_keys=32, bytes_per_event=48)
        described = spec.describe()
        assert described["n_keys"] == 32
        assert described["bytes_per_event"] == 48
        assert described["keyed_by_payload"] is False
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
        # charge is replay_factor (0.5) * the 5 s of lost progress
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
    """Each processed event grows one key by ``bytes_per_event``.

    Zipf-drawn keys are counted and drawn when the state is read; payload
    keys go through the per-item probe. Both must account for every event
    the vertex processed, and a spec that grows nothing gets no probe.
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
        return job.state_manager, sum(t.items_processed for t in tasks)

    def test_zipf_keys_count_every_event(self):
        manager, processed = self._run(n_keys=32, bytes_per_event=8)
        state = manager.keyed_state("worker")
        assert processed > 1000 and state.total_bytes == 8 * processed
        assert set(state.items()) <= {f"k{rank:04d}" for rank in range(32)}
        assert manager.probed_vertices == ()

    def test_payload_keys_go_through_the_probe(self):
        manager, processed = self._run(key_fn=lambda x: int(x * 4), bytes_per_event=8)
        state = manager.keyed_state("worker")
        assert processed > 1000 and state.total_bytes == 8 * processed
        assert set(state.items()) == {0, 1, 2, 3}
        assert manager.probed_vertices == ("worker",)

    @pytest.mark.parametrize("key_fn", [None, lambda x: int(x * 4)], ids=["zipf", "payload"])
    def test_zero_bytes_per_event_grow_nothing(self, key_fn):
        manager, processed = self._run(key_fn=key_fn, bytes_per_event=0)
        assert processed > 1000 and manager.keyed_state("worker").key_count == 0
        assert manager.probed_vertices == ()


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
