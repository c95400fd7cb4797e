"""Key-partitioned operator state, checkpoints and rescale migrations.

The source paper treats operators as stateless, so rescaling is free and
a crash loses nothing. Real windowed aggregations and joins accumulate
per-key state, and both of the failure modes this module adds interact
directly with the latency bound:

* **Rescaling** a stateful vertex repartitions its keys, which means a
  multi-phase migration (quiesce → snapshot → transfer → restore) whose
  pause scales with the migrated bytes. Migrations can fail mid-transfer
  (:class:`~repro.simulation.faults.MigrationFailure`) and roll back to
  the pre-rescale partitioning without state loss.
* **Crashes** lose every byte written since the last periodic
  checkpoint; recovery restores the checkpoint and charges a replay
  delay proportional to the checkpoint's age before the replacement task
  starts, so the checkpoint interval trades steady-state snapshot pauses
  against crash-recovery time.

State *sizes* are modeled, not materialized payloads: each processed
event grows one key drawn from a :class:`~repro.workloads.keys
.ZipfKeySampler` (the same skewed law behind the tweet topics).
Everything is deterministic: key draws come
from a dedicated per-vertex ``state:{vertex}`` stream and migration
phase jitter from the shared ``migration`` stream, so same-seed runs
replay byte-identically.

A processed event is only counted (the task's own ``items_processed``);
its key is drawn when something reads or re-partitions the state (see
:meth:`StateManager._apply_pending`), which builds exactly the state
that growing one key per event builds.
"""

from __future__ import annotations

import random
import zlib
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.latency_model import MigrationCostModel, expected_migration_pause
from repro.engine.task import STOPPED, RuntimeTask
from repro.simulation.randomness import Gamma
from repro.workloads.keys import ZipfKeySampler


def stable_key_hash(key: object) -> int:
    """Platform- and run-stable hash used to place a key in a partition.

    Python's built-in ``hash`` is salted per process for strings, which
    would break byte-identical replays; CRC-32 over ``repr(key)`` is
    stable everywhere.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


class MigrationPlan:
    """One planned repartitioning of a vertex's keyed state.

    ``moved_bytes`` is measured at plan time and drives the migration's
    phase durations. Apply and rollback only choose the parallelism a
    rank's partition is computed with, so they move no byte: a
    rolled-back migration loses nothing, and never resurrects state a
    concurrent crash legitimately lost.
    """

    __slots__ = ("vertex", "p_from", "p_to", "moved_bytes",
                 "aborted", "abort_reason")

    def __init__(self, vertex: str, p_from: int, p_to: int, moved_bytes: int) -> None:
        self.vertex = vertex
        self.p_from = p_from
        self.p_to = p_to
        self.moved_bytes = moved_bytes
        #: set by the reconciler when a crash lands mid-migration, so the
        #: transfer deterministically rolls back instead of applying
        self.aborted = False
        self.abort_reason = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MigrationPlan({self.vertex}, {self.p_from}->{self.p_to}, "
                f"{self.moved_bytes} B)")


class KeyedState:
    """Per-key state bytes of one vertex, hash-partitioned over tasks.

    ``bytes[r]`` is the state of Zipf rank ``r``, whose key is present
    exactly when its bytes are above 0. Rank ``r`` lives in partition
    ``digests[r] % parallelism``; partition index corresponds to a
    task's rank among the vertex's active tasks (rank order, not raw
    subtask index, so restarts keep the mapping stable).
    """

    __slots__ = ("vertex", "parallelism", "digests", "bytes")

    def __init__(self, vertex: str, parallelism: int, digests: Sequence[int]) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1 (got {parallelism})")
        self.vertex = vertex
        self.parallelism = int(parallelism)
        #: each rank's ``stable_key_hash``, fixed for the vertex's life
        self.digests = tuple(digests)
        self.bytes: List[int] = [0] * len(self.digests)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes)

    @property
    def key_count(self) -> int:
        return len(self.bytes) - self.bytes.count(0)

    # ------------------------------------------------------------------
    # migration (rescale repartitioning)
    # ------------------------------------------------------------------

    def plan_migration(self, new_parallelism: int) -> MigrationPlan:
        """Plan repartitioning onto ``new_parallelism`` tasks (no mutation)."""
        if new_parallelism < 1:
            raise ValueError(
                f"new_parallelism must be >= 1 (got {new_parallelism})"
            )
        p = self.parallelism
        moved_bytes = sum(
            nbytes for nbytes, digest in zip(self.bytes, self.digests)
            if digest % new_parallelism != digest % p
        )
        return MigrationPlan(self.vertex, p, new_parallelism, moved_bytes)

    def apply(self, plan: MigrationPlan) -> None:
        """Adopt the plan's target layout (transfer completed)."""
        self.parallelism = plan.p_to

    def rollback(self, plan: MigrationPlan) -> None:
        """Restore the pre-migration layout (transfer failed); lossless."""
        self.parallelism = plan.p_from

    def repartition(self, new_parallelism: int) -> int:
        """Instant plan+apply (non-migrating paths); returns moved bytes."""
        plan = self.plan_migration(new_parallelism)
        self.parallelism = new_parallelism
        return plan.moved_bytes

    # ------------------------------------------------------------------
    # checkpoint / crash restore
    # ------------------------------------------------------------------

    def snapshot(self) -> List[int]:
        """A checkpointable copy of every rank's bytes."""
        return list(self.bytes)

    def restore_partition(self, index: int, checkpoint: Sequence[int]) -> int:
        """Reset partition ``index``'s ranks to their checkpointed bytes.

        Returns the bytes lost: the partition's growth since the
        checkpoint, which is never negative because state only grows
        between restores.
        """
        if not 0 <= index < self.parallelism:
            raise ValueError(
                f"partition index {index} out of range 0..{self.parallelism - 1}"
            )
        p, current = self.parallelism, self.bytes
        lost = 0
        for rank, digest in enumerate(self.digests):
            if digest % p == index:
                lost += current[rank] - checkpoint[rank]
                current[rank] = checkpoint[rank]
        return lost

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KeyedState({self.vertex}, p={self.parallelism}, "
                f"{self.key_count} keys, {self.total_bytes} B)")


#: replay seconds charged per second of checkpoint age on a task crash
REPLAY_FACTOR = 0.5


class StatefulVertexSpec:
    """Declarative state model of one vertex (see ``PipelineBuilder.stateful``)."""

    __slots__ = ("n_keys", "zipf_s", "bytes_per_event", "cost")

    def __init__(
        self,
        n_keys: int = 64,
        zipf_s: float = 1.1,
        bytes_per_event: int = 64,
        cost: Optional[MigrationCostModel] = None,
    ) -> None:
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1 (got {n_keys})")
        if bytes_per_event < 0:
            raise ValueError(
                f"bytes_per_event must be >= 0 (got {bytes_per_event})"
            )
        self.n_keys = int(n_keys)
        self.zipf_s = float(zipf_s)
        self.bytes_per_event = int(bytes_per_event)
        self.cost = cost or MigrationCostModel()

    def describe(self) -> Dict[str, object]:
        return {
            "n_keys": self.n_keys,
            "zipf_s": self.zipf_s,
            "bytes_per_event": self.bytes_per_event,
            "replay_factor": REPLAY_FACTOR,
            "cost": self.cost.describe(),
        }


_items_processed = attrgetter("items_processed")


class _VertexState:
    """One vertex's live state model inside the manager."""

    __slots__ = ("spec", "state", "sampler", "rng",
                 "checkpoint", "checkpoint_time", "tasks", "drawn")

    def __init__(self, vertex: str, spec: StatefulVertexSpec,
                 parallelism: int, rng: random.Random) -> None:
        self.spec = spec
        #: rank ``r``'s key is ``k{r:04d}``; the only place it is hashed
        digests = [stable_key_hash(f"k{rank:04d}") for rank in range(spec.n_keys)]
        self.state = KeyedState(vertex, parallelism, digests)
        self.sampler = ZipfKeySampler(spec.n_keys, spec.zipf_s)
        self.rng = rng
        #: last checkpoint: every rank's bytes + its capture time (t=0
        #: start counts as an implicit empty checkpoint)
        self.checkpoint: List[int] = [0] * spec.n_keys
        self.checkpoint_time = 0.0
        #: the vertex's tasks whose events draw Zipf keys, until a fold
        #: finds them stopped (the scheduler drops stopped tasks from the
        #: runtime vertex at once, so the manager keeps its own list)
        self.tasks: List[RuntimeTask] = []
        #: items processed by ``tasks`` whose keys are drawn and applied
        self.drawn = 0


class StateManager:
    """Owns every stateful vertex's :class:`KeyedState` plus the fault model.

    Wired by :class:`~repro.engine.engine.DeployedJob` when the pipeline
    declares stateful vertices; absent otherwise, so stateless runs stay
    byte-identical to pre-state behavior.
    """

    def __init__(
        self,
        sim,
        runtime,
        specs: Dict[str, StatefulVertexSpec],
        streams,
        checkpoint_interval: float = 15.0,
    ) -> None:
        if checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive (got {checkpoint_interval})"
            )
        self.sim = sim
        self.runtime = runtime
        self.checkpoint_interval = float(checkpoint_interval)
        self._migration_rng = streams.get("migration")
        self._vertices: Dict[str, _VertexState] = {}
        for name in sorted(specs):
            rv = runtime.vertices[name]
            # Before deploy() the runtime has no tasks yet — fall back
            # to the job vertex's configured initial parallelism.
            parallelism = rv.target_parallelism or rv.job_vertex.parallelism
            self._vertices[name] = _VertexState(
                name, specs[name], parallelism,
                streams.get(f"state:{name}"),
            )
        # counters (all deterministic; surfaced via summary() and
        # sampled as ``state.*`` metrics)
        self.migrations_started = 0
        self.migrations_completed = 0
        self.migrations_rolled_back = 0
        self.migrations_deferred = 0
        self.state_migrated_bytes = 0
        self.state_lost_bytes = 0
        self.recovery_time_s = 0.0
        self.migration_pause_s = 0.0
        self.checkpoints = 0
        self.checkpoint_pause_s = 0.0
        self.crash_recoveries = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def is_stateful(self, vertex: str) -> bool:
        return vertex in self._vertices

    @property
    def vertices(self) -> Tuple[str, ...]:
        return tuple(self._vertices)

    def spec(self, vertex: str) -> StatefulVertexSpec:
        return self._vertices[vertex].spec

    # ------------------------------------------------------------------
    # state growth
    # ------------------------------------------------------------------

    def track(self, task: RuntimeTask) -> None:
        """Count ``task``'s processed items as events of a stateful vertex.

        Called for every task the job creates; a task of any other
        vertex, or of one whose events grow nothing, is ignored.
        """
        vs = self._vertices.get(task.vertex_name)
        if vs is not None and vs.spec.bytes_per_event:
            vs.tasks.append(task)

    def _apply_pending(self, vs: _VertexState) -> None:
        """Draw the keys of ``vs``'s pending events and grow their state.

        The one rule that draws a Zipf-keyed vertex's keys, run first by
        every method that reads or re-partitions the state. Pending
        events are the tracked tasks' ``items_processed`` not yet drawn;
        their keys come from the ``state:`` stream (which has no other
        consumer) in event order, and each adds ``bytes_per_event`` to its
        rank's int, so the order the counts are added in does not matter.
        """
        tasks = vs.tasks
        processed = sum(map(_items_processed, tasks))
        pending = processed - vs.drawn
        if pending:
            nbytes = vs.spec.bytes_per_event
            ranks = vs.state.bytes
            for rank, events in vs.sampler.count_ranks(vs.rng, pending).items():
                ranks[rank] += events * nbytes
        stopped = [task for task in tasks if task.state == STOPPED]
        if stopped:  # all drawn, and a stopped task processes nothing more
            vs.tasks = [task for task in tasks if task.state != STOPPED]
            processed -= sum(map(_items_processed, stopped))
        vs.drawn = processed

    def _current(self, vertex: str) -> _VertexState:
        """``vertex``'s state model with its pending events applied."""
        vs = self._vertices[vertex]
        self._apply_pending(vs)
        return vs

    def keyed_state(self, vertex: str) -> KeyedState:
        """``vertex``'s keyed state, every processed event applied."""
        return self._current(vertex).state

    # ------------------------------------------------------------------
    # periodic checkpoints
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic checkpoint timers (one per stateful vertex)."""
        for name in self._vertices:
            self.sim.every(self.checkpoint_interval, self._checkpoint, name)

    def _checkpoint(self, vertex: str) -> None:
        vs = self._current(vertex)
        vs.checkpoint = vs.state.snapshot()
        vs.checkpoint_time = self.sim.now
        self.checkpoints += 1
        # The synchronous snapshot briefly pauses the vertex — the cost
        # side of the checkpoint-interval tradeoff.
        pause = vs.state.total_bytes / vs.spec.cost.snapshot_bytes_per_s
        if pause > 0:
            self.checkpoint_pause_s += pause
            self._pause_tasks(vertex, pause)

    # ------------------------------------------------------------------
    # crash recovery (checkpoint restore + replay)
    # ------------------------------------------------------------------

    def on_task_failed(self, task) -> float:
        """Checkpoint-restore the crashed task's partition.

        Returns the replay delay (seconds) the scheduler adds on top of
        the restart delay before the replacement task starts — the
        recovery-time side of the checkpoint-interval tradeoff.
        """
        vertex = task.vertex_name
        if vertex not in self._vertices:
            return 0.0
        vs = self._current(vertex)
        rv = self.runtime.vertices[vertex]
        ranked = sorted(rv.active_tasks(), key=lambda t: t.subtask_index)
        try:
            rank = ranked.index(task)
        except ValueError:  # pragma: no cover - defensive
            rank = 0
        partition = rank % vs.state.parallelism
        lost = vs.state.restore_partition(partition, vs.checkpoint)
        replay = REPLAY_FACTOR * max(0.0, self.sim.now - vs.checkpoint_time)
        self.state_lost_bytes += lost
        self.recovery_time_s += replay
        self.crash_recoveries += 1
        return replay

    # ------------------------------------------------------------------
    # migrations
    # ------------------------------------------------------------------

    def migration_cost(self, vertex: str, p_from: int, p_to: int) -> Optional[Tuple[float, int]]:
        """``(expected_pause_s, moved_bytes)`` of a rescale, or None.

        What the scaler's migration gate weighs against the remaining
        slack: deterministic (no RNG) and mutating nothing. None means
        the vertex is stateless or the rescale is a no-op.
        """
        if p_from == p_to or not self.is_stateful(vertex):
            return None
        vs = self._current(vertex)
        plan = vs.state.plan_migration(p_to)
        return expected_migration_pause(plan.moved_bytes, vs.spec.cost), plan.moved_bytes

    def plan_migration(self, vertex: str, target: int) -> MigrationPlan:
        plan = self.keyed_state(vertex).plan_migration(target)
        self.migrations_started += 1
        return plan

    def sample_phase_times(
        self, vertex: str, moved_bytes: int
    ) -> Tuple[float, float, float, float]:
        """Sampled (quiesce, snapshot, transfer, restore) durations.

        Each phase draws one Gamma sample around the cost model's mean
        from the dedicated ``migration`` stream, so migrations never
        perturb service-time or fault draws.
        """
        cost = self._vertices[vertex].spec.cost
        out = []
        for mean in cost.phase_means(moved_bytes):
            if mean <= 0:
                out.append(0.0)
            elif cost.jitter_cv <= 0:
                out.append(mean)
            else:
                out.append(Gamma(mean, cost.jitter_cv).sample(self._migration_rng))
        return tuple(out)

    def apply_migration(self, plan: MigrationPlan) -> None:
        """Adopt the layout; the cluster may still deny the rescale."""
        self.keyed_state(plan.vertex).apply(plan)

    def complete_migration(self, plan: MigrationPlan, t_restore: float) -> None:
        """The rescale was applied: count the migration and its bytes."""
        self.migrations_completed += 1
        self.state_migrated_bytes += plan.moved_bytes
        self.note_migration_pause(plan.vertex, t_restore)

    def rollback_migration(self, plan: MigrationPlan) -> None:
        self.keyed_state(plan.vertex).rollback(plan)
        self.abandon_migration(plan)

    def abandon_migration(self, plan: MigrationPlan) -> None:
        """Count a migration rolled back before its plan was applied.

        A transfer superseded mid-flight ends here: the layout was never
        touched, so there is nothing to restore.
        """
        self.migrations_rolled_back += 1

    def sync_parallelism(self, vertex: str) -> int:
        """Repartition instantly to the vertex's current target.

        The non-migrating paths (no reconciler, crash without restart,
        partial scale-downs) land here; a reconciler migration applies
        its plan first, making this a no-op for that rescale. Returns the
        bytes moved.
        """
        if vertex not in self._vertices:
            return 0
        vs = self._current(vertex)
        target = max(1, self.runtime.vertices[vertex].target_parallelism)
        moved = vs.state.repartition(target)
        self.state_migrated_bytes += moved
        return moved

    def note_migration_pause(self, vertex: str, pause: float) -> None:
        self.migration_pause_s += pause
        self._pause_tasks(vertex, pause)

    def _pause_tasks(self, vertex: str, duration: float) -> None:
        for task in self.runtime.vertices[vertex].active_tasks():
            task.pause(duration)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Deterministic digest for the run manifest / shard results."""
        for vs in self._vertices.values():
            self._apply_pending(vs)
        vertices = {
            name: {
                "parallelism": vs.state.parallelism,
                "keys": vs.state.key_count,
                "state_bytes": vs.state.total_bytes,
                "spec": vs.spec.describe(),
            }
            for name, vs in self._vertices.items()
        }
        return {
            "vertices": vertices,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoints": self.checkpoints,
            "checkpoint_pause_s": round(self.checkpoint_pause_s, 9),
            "migrations": {
                "started": self.migrations_started,
                "completed": self.migrations_completed,
                "failed": self.migrations_rolled_back,
                "rolled_back": self.migrations_rolled_back,
                "deferred": self.migrations_deferred,
            },
            "state_migrated_bytes": self.state_migrated_bytes,
            "state_lost_bytes": self.state_lost_bytes,
            "migration_pause_s": round(self.migration_pause_s, 9),
            "recovery_time_s": round(self.recovery_time_s, 9),
            "crash_recoveries": self.crash_recoveries,
        }


__all__ = [
    "KeyedState",
    "MigrationPlan",
    "REPLAY_FACTOR",
    "StateManager",
    "StatefulVertexSpec",
    "stable_key_hash",
]
