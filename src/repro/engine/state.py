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
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.latency_model import MigrationCostModel, expected_migration_pause
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

    ``moved_keys``/``moved_bytes`` are measured at plan time and drive
    the migration's phase durations. Apply and rollback both rebuild the
    partition layout from the *live* key contents (hash placement is
    deterministic), so they are content-preserving even when a crash
    mutates state mid-migration: a rolled-back migration loses nothing,
    and never resurrects state a concurrent crash legitimately lost.
    """

    __slots__ = ("vertex", "p_from", "p_to", "moved_keys", "moved_bytes",
                 "aborted", "abort_reason")

    def __init__(
        self,
        vertex: str,
        p_from: int,
        p_to: int,
        moved_keys: Tuple[object, ...],
        moved_bytes: int,
    ) -> None:
        self.vertex = vertex
        self.p_from = p_from
        self.p_to = p_to
        self.moved_keys = moved_keys
        self.moved_bytes = moved_bytes
        #: set by the reconciler when a crash lands mid-migration, so the
        #: transfer deterministically rolls back instead of applying
        self.aborted = False
        self.abort_reason = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MigrationPlan({self.vertex}, {self.p_from}->{self.p_to}, "
                f"{len(self.moved_keys)} keys, {self.moved_bytes} B)")


class KeyedState:
    """Per-key state bytes of one vertex, hash-partitioned over tasks.

    Partition ``i`` holds every key with ``stable_key_hash(key) %
    parallelism == i``; partition index corresponds to a task's rank
    among the vertex's active tasks (rank order, not raw subtask index,
    so restarts keep the mapping stable).
    """

    __slots__ = ("vertex", "parallelism", "_partitions")

    def __init__(self, vertex: str, parallelism: int) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1 (got {parallelism})")
        self.vertex = vertex
        self.parallelism = int(parallelism)
        self._partitions: List[Dict[object, int]] = [
            {} for _ in range(self.parallelism)
        ]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def partition_of(self, key: object) -> int:
        return stable_key_hash(key) % self.parallelism

    def add(self, key: object, nbytes: int) -> None:
        """Grow (or shrink, with negative ``nbytes``) one key's state."""
        partition = self._partitions[self.partition_of(key)]
        value = partition.get(key, 0) + int(nbytes)
        if value > 0:
            partition[key] = value
        else:
            partition.pop(key, None)

    @property
    def total_bytes(self) -> int:
        return sum(sum(p.values()) for p in self._partitions)

    @property
    def key_count(self) -> int:
        return sum(len(p) for p in self._partitions)

    def items(self) -> Dict[object, int]:
        """Global ``{key: bytes}`` view (keys are unique across partitions)."""
        out: Dict[object, int] = {}
        for partition in self._partitions:
            out.update(partition)
        return out

    # ------------------------------------------------------------------
    # migration (rescale repartitioning)
    # ------------------------------------------------------------------

    def plan_migration(self, new_parallelism: int) -> MigrationPlan:
        """Plan repartitioning onto ``new_parallelism`` tasks (no mutation)."""
        if new_parallelism < 1:
            raise ValueError(
                f"new_parallelism must be >= 1 (got {new_parallelism})"
            )
        moved_keys: List[object] = []
        moved_bytes = 0
        for index, partition in enumerate(self._partitions):
            for key, nbytes in partition.items():
                if stable_key_hash(key) % new_parallelism != index:
                    moved_keys.append(key)
                    moved_bytes += nbytes
        return MigrationPlan(
            self.vertex, self.parallelism, new_parallelism,
            tuple(moved_keys), moved_bytes,
        )

    def _rebuild(self, new_parallelism: int) -> None:
        partitions: List[Dict[object, int]] = [
            {} for _ in range(new_parallelism)
        ]
        for key, nbytes in self.items().items():
            partitions[stable_key_hash(key) % new_parallelism][key] = nbytes
        self._partitions = partitions
        self.parallelism = new_parallelism

    def apply(self, plan: MigrationPlan) -> None:
        """Adopt the plan's target layout (transfer completed)."""
        self._rebuild(plan.p_to)

    def rollback(self, plan: MigrationPlan) -> None:
        """Restore the pre-migration layout (transfer failed); lossless."""
        self._rebuild(plan.p_from)

    def repartition(self, new_parallelism: int) -> int:
        """Instant plan+apply (non-migrating paths); returns moved bytes."""
        if new_parallelism == self.parallelism:
            return 0
        plan = self.plan_migration(new_parallelism)
        self.apply(plan)
        return plan.moved_bytes

    # ------------------------------------------------------------------
    # checkpoint / crash restore
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[object, int]:
        """A checkpointable copy of the global key map."""
        return self.items()

    def restore_partition(self, index: int, checkpoint: Dict[object, int]) -> int:
        """Reset partition ``index`` to its checkpointed content.

        Keys grown (or born) since the checkpoint lose the delta; keys
        the checkpoint holds but the partition lost keep the checkpoint
        value. Returns the net bytes lost relative to pre-crash.
        """
        if not 0 <= index < self.parallelism:
            raise ValueError(
                f"partition index {index} out of range 0..{self.parallelism - 1}"
            )
        partition = self._partitions[index]
        before = sum(partition.values())
        restored: Dict[object, int] = {}
        for key, nbytes in checkpoint.items():
            if stable_key_hash(key) % self.parallelism == index and nbytes > 0:
                restored[key] = nbytes
        self._partitions[index] = restored
        return before - sum(restored.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"KeyedState({self.vertex}, p={self.parallelism}, "
                f"{self.key_count} keys, {self.total_bytes} B)")


class StatefulVertexSpec:
    """Declarative state model of one vertex (see ``PipelineBuilder.stateful``)."""

    __slots__ = ("n_keys", "zipf_s", "bytes_per_event", "key_fn",
                 "cost", "replay_factor")

    def __init__(
        self,
        n_keys: int = 64,
        zipf_s: float = 1.1,
        bytes_per_event: int = 64,
        key_fn: Optional[Callable[[object], object]] = None,
        cost: Optional[MigrationCostModel] = None,
        replay_factor: float = 0.5,
    ) -> None:
        if n_keys < 1:
            raise ValueError(f"n_keys must be >= 1 (got {n_keys})")
        if bytes_per_event < 0:
            raise ValueError(
                f"bytes_per_event must be >= 0 (got {bytes_per_event})"
            )
        if replay_factor < 0:
            raise ValueError(f"replay_factor must be >= 0 (got {replay_factor})")
        self.n_keys = int(n_keys)
        self.zipf_s = float(zipf_s)
        self.bytes_per_event = int(bytes_per_event)
        #: optional payload → key extractor; when None, keys are sampled
        #: from the Zipf law on the vertex's dedicated state stream
        self.key_fn = key_fn
        self.cost = cost or MigrationCostModel()
        #: replay seconds charged per second of checkpoint age on crash
        self.replay_factor = float(replay_factor)

    def describe(self) -> Dict[str, object]:
        return {
            "n_keys": self.n_keys,
            "zipf_s": self.zipf_s,
            "bytes_per_event": self.bytes_per_event,
            "keyed_by_payload": self.key_fn is not None,
            "replay_factor": self.replay_factor,
            "cost": self.cost.describe(),
        }


class _VertexState:
    """One vertex's live state model inside the manager."""

    __slots__ = ("spec", "state", "sampler", "rank_keys", "rng",
                 "checkpoint", "checkpoint_time")

    def __init__(self, vertex: str, spec: StatefulVertexSpec,
                 parallelism: int, rng: random.Random) -> None:
        self.spec = spec
        self.state = KeyedState(vertex, parallelism)
        self.sampler = ZipfKeySampler(spec.n_keys, spec.zipf_s)
        #: ``(key, stable_key_hash(key))`` of every Zipf rank, so a
        #: sampled event formats and hashes nothing
        keys = [f"k{rank:04d}" for rank in range(spec.n_keys)]
        self.rank_keys = tuple((key, stable_key_hash(key)) for key in keys)
        self.rng = rng
        #: last checkpoint: global key map + its capture time (t=0 start
        #: counts as an implicit empty checkpoint)
        self.checkpoint: Dict[object, int] = {}
        self.checkpoint_time = 0.0


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

    def on_event(self, vertex: str, payload: object = None) -> None:
        """One processed event grows one key of ``vertex``'s state."""
        vs = self._vertices[vertex]
        spec = vs.spec
        nbytes = spec.bytes_per_event
        if nbytes == 0:
            return
        if spec.key_fn is not None:
            vs.state.add(spec.key_fn(payload), nbytes)
            return
        # vs.state.add(f"k{rank:04d}", nbytes), inlined with the rank's
        # key and placement hash looked up instead of computed
        key, digest = vs.rank_keys[vs.sampler.sample_index(vs.rng)]
        state = vs.state
        partition = state._partitions[digest % state.parallelism]
        value = partition.get(key, 0) + int(nbytes)
        if value > 0:
            partition[key] = value
        else:
            partition.pop(key, None)

    # ------------------------------------------------------------------
    # periodic checkpoints
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic checkpoint timers (one per stateful vertex)."""
        for name in self._vertices:
            self.sim.every(self.checkpoint_interval, self._checkpoint, name)

    def _checkpoint(self, vertex: str) -> None:
        vs = self._vertices[vertex]
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
        vs = self._vertices.get(vertex)
        if vs is None:
            return 0.0
        rv = self.runtime.vertices[vertex]
        ranked = sorted(rv.active_tasks(), key=lambda t: t.subtask_index)
        try:
            rank = ranked.index(task)
        except ValueError:  # pragma: no cover - defensive
            rank = 0
        partition = rank % vs.state.parallelism
        lost = vs.state.restore_partition(partition, vs.checkpoint)
        replay = vs.spec.replay_factor * max(
            0.0, self.sim.now - vs.checkpoint_time
        )
        self.state_lost_bytes += max(0, lost)
        self.recovery_time_s += replay
        self.crash_recoveries += 1
        return replay

    # ------------------------------------------------------------------
    # migrations
    # ------------------------------------------------------------------

    def plan_migration(self, vertex: str, target: int) -> MigrationPlan:
        plan = self._vertices[vertex].state.plan_migration(target)
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
        self._vertices[plan.vertex].state.apply(plan)

    def complete_migration(self, plan: MigrationPlan, t_restore: float) -> None:
        """The rescale was applied: count the migration and its bytes."""
        self.migrations_completed += 1
        self.state_migrated_bytes += plan.moved_bytes
        self.note_migration_pause(plan.vertex, t_restore)

    def rollback_migration(self, plan: MigrationPlan) -> None:
        self._vertices[plan.vertex].state.rollback(plan)
        self.migrations_rolled_back += 1

    def sync_parallelism(self, vertex: str) -> int:
        """Repartition instantly to the vertex's current target.

        The non-migrating paths (no reconciler, crash without restart,
        partial scale-downs) land here; a reconciler migration applies
        its plan first, making this a no-op for that rescale. Returns the
        bytes moved.
        """
        vs = self._vertices.get(vertex)
        if vs is None:
            return 0
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


class MigrationAdvisor:
    """The policy-facing view of migration cost (read-only, no RNG).

    Policies ask *what would this rescale pause cost right now* and
    weigh it against the remaining latency headroom; deferrals are
    counted back into the manager so the scoreboard can see them.
    """

    __slots__ = ("_manager",)

    def __init__(self, manager: StateManager) -> None:
        self._manager = manager

    def assess(
        self, vertex: str, p_from: int, p_to: int
    ) -> Optional[Tuple[float, int]]:
        """``(expected_pause_s, moved_bytes)`` of the rescale, or None.

        None means the vertex is stateless or the rescale is a no-op —
        nothing migrates, the gate must not interfere.
        """
        if p_from == p_to or not self._manager.is_stateful(vertex):
            return None
        vs = self._manager._vertices[vertex]
        plan = vs.state.plan_migration(p_to)
        pause = expected_migration_pause(plan.moved_bytes, vs.spec.cost)
        return pause, plan.moved_bytes

    def note_deferred(self, vertex: str) -> None:
        self._manager.migrations_deferred += 1


__all__ = [
    "KeyedState",
    "MigrationAdvisor",
    "MigrationPlan",
    "StateManager",
    "StatefulVertexSpec",
    "stable_key_hash",
]
