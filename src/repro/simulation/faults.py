"""Deterministic fault injection for chaos experiments.

The paper's ScaleReactively loop assumes a steady stream of fresh QoS
measurements; real deployments see task crashes, worker loss and
measurement dropouts. This module schedules such faults as ordinary
events on the shared :class:`~repro.simulation.kernel.Simulator` heap, so
a chaos run is exactly as reproducible as a fault-free one: the same
:class:`FaultPlan` (same seed) against the same engine seed yields a
bit-identical event trace.

A :class:`FaultPlan` is a declarative list of fault specs:

* :class:`TaskCrash` — abrupt task failure, optional restart after a
  configurable delay (the replacement is rewired and gets a fresh QoS
  reporter, like an elastic scale-up);
* :class:`WorkerLoss` — simultaneous crash of every task hosted on one
  leased worker;
* :class:`MeasurementDropout` — QoS managers drop all samples for a
  window, so summaries go stale (the scaler's staleness gate and the
  post-recovery cooldown are the graceful-degradation paths exercised);
* :class:`ServiceSpike` — transient multiplicative service-time spike on
  a vertex's live tasks (hot-spot / noisy-neighbor interference).

A :class:`FaultInjector` arms a plan against a deployed job. Victim
selection (which task of a vertex, which worker) is driven by a stream
derived from the *plan's* seed — independent of the engine's seed — via
:class:`~repro.simulation.randomness.RandomStreams`. Every injected or
recovered fault is appended to :attr:`FaultInjector.log`;
:meth:`FaultInjector.trace` returns it as plain tuples for byte-exact
determinism assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.simulation.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - avoids simulation -> engine cycles
    from repro.engine.engine import DeployedJob


@dataclass(frozen=True)
class TaskCrash:
    """Crash one task of ``vertex`` at virtual time ``at``.

    ``subtask`` picks the victim by subtask index; ``None`` selects one
    of the active tasks with the plan's seeded RNG. ``restart_delay``
    schedules a replacement task (``None`` = no restart: the vertex
    permanently loses one degree of parallelism until the scaler reacts).
    """

    at: float
    vertex: str
    subtask: Optional[int] = None
    restart_delay: Optional[float] = 2.0


@dataclass(frozen=True)
class WorkerLoss:
    """Crash every task on one leased worker at virtual time ``at``.

    ``worker_index`` indexes the lease-ordered worker list at injection
    time; ``None`` selects a leased worker with the plan's seeded RNG.
    Replacements (with ``restart_delay`` set) are placed by the resource
    manager and may land on other workers.
    """

    at: float
    worker_index: Optional[int] = None
    restart_delay: Optional[float] = 2.0


@dataclass(frozen=True)
class MeasurementDropout:
    """Suppress all QoS measurement collection for ``duration`` seconds.

    Reporters are still drained (their accumulators reset) but the
    samples are discarded — exactly what a lost reporter heartbeat looks
    like to the master. Summaries built during the window carry growing
    :attr:`~repro.qos.summary.VertexSummary.staleness`.
    """

    at: float
    duration: float


@dataclass(frozen=True)
class ServiceSpike:
    """Multiply service times of ``vertex``'s live tasks by ``factor``.

    The spike lasts ``duration`` seconds and applies to the tasks live at
    injection time (tasks started mid-spike run at normal speed, like a
    fresh process escaping a degraded host).
    """

    at: float
    vertex: str
    factor: float = 3.0
    duration: float = 5.0


@dataclass(frozen=True)
class ActuationFailure:
    """Make every actuation attempt fail for ``duration`` seconds.

    Models a broken provisioning path (cluster manager outage, image
    registry down): the scaler's orders are accepted but every attempt
    completing inside the window fails, so the
    :class:`~repro.actuation.reconciler.ReconciliationController` keeps
    retrying with backoff until the window ends — or its watchdog
    escalates. ``vertex=None`` hits all vertices. No-op (recorded as
    such) when the job runs without actuation supervision.
    """

    at: float
    duration: float
    vertex: Optional[str] = None


@dataclass(frozen=True)
class ActuationDelay:
    """Stretch actuation provisioning delays by ``factor`` for a window.

    Models slow provisioning (cold machines, congested scheduler): each
    attempt issued inside the window samples its provisioning delay and
    multiplies it by ``factor`` — pushing samples past the actuation
    ``timeout`` turns slowness into failed attempts. ``vertex=None``
    hits all vertices. No-op (recorded as such) when the job runs
    without actuation supervision.
    """

    at: float
    duration: float
    vertex: Optional[str] = None
    factor: float = 3.0


@dataclass(frozen=True)
class MigrationFailure:
    """Make state migrations fail mid-transfer for ``duration`` seconds.

    Models a broken state-transfer path (blob store outage, partitioned
    network between workers): any stateful rescale whose transfer phase
    completes inside the window fails and rolls back to the pre-rescale
    partitioning without state loss; the reconciler's retry/backoff and
    watchdog machinery then re-attempts the rescale. ``vertex=None``
    hits all vertices. No-op (recorded as such) when the job runs
    without actuation supervision or has no stateful vertices.
    """

    at: float
    duration: float
    vertex: Optional[str] = None


#: any schedulable fault spec
FaultSpec = Union[
    TaskCrash, WorkerLoss, MeasurementDropout, ServiceSpike,
    ActuationFailure, ActuationDelay, MigrationFailure,
]


@dataclass
class FaultPlan:
    """A deterministic chaos scenario: fault specs plus a victim-pick seed."""

    events: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = "faults"

    def __post_init__(self) -> None:
        self.events = tuple(self.events)
        for spec in self.events:
            if spec.at < 0:
                raise ValueError(f"fault time must be >= 0 (got {spec.at} in {spec!r})")
            duration = getattr(spec, "duration", None)
            if duration is not None and duration <= 0:
                raise ValueError(f"fault duration must be > 0 (got {spec!r})")
            factor = getattr(spec, "factor", None)
            if factor is not None and factor <= 0:
                raise ValueError(f"spike factor must be > 0 (got {spec!r})")
            restart_delay = getattr(spec, "restart_delay", None)
            if restart_delay is not None and restart_delay < 0:
                raise ValueError(
                    f"restart_delay must be >= 0 (got {spec!r})"
                )

    def __bool__(self) -> bool:
        return bool(self.events)


class FaultRecord:
    """One injected (or recovered) fault, for logs and recorders."""

    __slots__ = ("time", "kind", "target", "detail")

    def __init__(self, time: float, kind: str, target: str, detail: str = "") -> None:
        self.time = time
        self.kind = kind
        self.target = target
        self.detail = detail

    def as_tuple(self) -> Tuple[float, str, str, str]:
        """Plain-tuple form for byte-exact trace comparison."""
        return (self.time, self.kind, self.target, self.detail)

    def __repr__(self) -> str:
        return f"FaultRecord(t={self.time:.3f}, {self.kind}, {self.target}, {self.detail})"


class FaultInjector:
    """Schedules a :class:`FaultPlan` onto a deployed job's simulator.

    All state a fault needs (scheduler, runtime graph, resource manager,
    QoS managers, scaler) is taken from the job at injection time, so the
    injector composes with elastic rescaling: a crash targets whatever
    tasks are live *when the fault fires*, not when the plan was written.
    """

    def __init__(self, plan: FaultPlan, job: "DeployedJob") -> None:
        self.plan = plan
        self.job = job
        self.sim = job.engine.sim
        #: chronological log of injected faults and recoveries
        self.log: List[FaultRecord] = []
        self._rng = RandomStreams(plan.seed).get(f"faults:{plan.name}")
        self._armed = False

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Schedule every fault of the plan; idempotent."""
        if self._armed:
            return self
        self._armed = True
        for spec in self.plan.events:
            delay = spec.at - self.sim.now
            if delay < 0:
                raise ValueError(
                    f"fault at t={spec.at} lies in the past (now={self.sim.now})"
                )
            self.sim.schedule(delay, self._inject, spec)
        return self

    def trace(self) -> List[Tuple[float, str, str, str]]:
        """The fault log as plain tuples (determinism assertions)."""
        return [record.as_tuple() for record in self.log]

    # ------------------------------------------------------------------
    # injection handlers
    # ------------------------------------------------------------------

    def _inject(self, spec: FaultSpec) -> None:
        if isinstance(spec, TaskCrash):
            self._inject_task_crash(spec)
        elif isinstance(spec, WorkerLoss):
            self._inject_worker_loss(spec)
        elif isinstance(spec, MeasurementDropout):
            self._inject_dropout(spec)
        elif isinstance(spec, ServiceSpike):
            self._inject_spike(spec)
        elif isinstance(spec, ActuationFailure):
            self._inject_actuation_failure(spec)
        elif isinstance(spec, ActuationDelay):
            self._inject_actuation_delay(spec)
        elif isinstance(spec, MigrationFailure):
            self._inject_migration_failure(spec)
        else:  # pragma: no cover - plan validation catches this
            raise TypeError(f"unknown fault spec {spec!r}")

    def _record(self, kind: str, target: str, detail: str = "") -> None:
        self.log.append(FaultRecord(self.sim.now, kind, target, detail))

    def _notify_scaler(self) -> None:
        scaler = self.job.scaler
        if scaler is not None:
            scaler.notify_fault_recovery()

    def _inject_task_crash(self, spec: TaskCrash) -> None:
        rv = self.job.runtime.vertex(spec.vertex)
        candidates = sorted(rv.active_tasks(), key=lambda t: t.subtask_index)
        if spec.subtask is not None:
            candidates = [t for t in candidates if t.subtask_index == spec.subtask]
        if not candidates:
            self._record("task_crash", spec.vertex, "noop:no-active-task")
            return
        victim = candidates[self._rng.randrange(len(candidates))]
        self.job.scheduler.fail_task(victim, spec.restart_delay)
        # Record the stable identity (vertex[subtask]) rather than
        # victim.task_id: task uids are process-global, and the trace must
        # be byte-identical across same-seed runs in one process.
        label = f"{spec.vertex}[{victim.subtask_index}]"
        self._record("task_crash", label, f"restart_delay={spec.restart_delay}")
        self._notify_scaler()
        if spec.restart_delay is not None:
            self.sim.schedule(spec.restart_delay, self._recovered, "task_restart", label)

    def _inject_worker_loss(self, spec: WorkerLoss) -> None:
        workers = self.job.engine.resources.leased_worker_list()
        if not workers:
            self._record("worker_loss", "-", "noop:no-leased-worker")
            return
        if spec.worker_index is not None:
            if spec.worker_index >= len(workers):
                self._record("worker_loss", "-", f"noop:index={spec.worker_index}")
                return
            worker = workers[spec.worker_index]
        else:
            worker = workers[self._rng.randrange(len(workers))]
        victims = self.job.scheduler.fail_worker(worker, spec.restart_delay)
        self._record(
            "worker_loss",
            f"worker#{worker.worker_id}",
            f"tasks={len(victims)},restart_delay={spec.restart_delay}",
        )
        self._notify_scaler()
        if spec.restart_delay is not None and victims:
            self.sim.schedule(
                spec.restart_delay, self._recovered, "worker_restart", f"worker#{worker.worker_id}"
            )

    def _inject_dropout(self, spec: MeasurementDropout) -> None:
        until = self.sim.now + spec.duration
        for manager in self.job._managers:
            manager.suppress_measurements(until)
        self._record("measurement_dropout", "qos", f"duration={spec.duration}")
        self._notify_scaler()
        self.sim.schedule(spec.duration, self._recovered, "measurement_restored", "qos")

    def _inject_spike(self, spec: ServiceSpike) -> None:
        rv = self.job.runtime.vertex(spec.vertex)
        victims = list(rv.active_tasks())
        for task in victims:
            task.service_multiplier *= spec.factor
        self._record(
            "service_spike",
            spec.vertex,
            f"factor={spec.factor},duration={spec.duration},tasks={len(victims)}",
        )
        self.sim.schedule(spec.duration, self._end_spike, spec, victims)

    def _end_spike(self, spec: ServiceSpike, victims: Sequence) -> None:
        for task in victims:
            task.service_multiplier /= spec.factor
        self._recovered("service_spike_end", spec.vertex)

    def _inject_actuation_failure(self, spec: ActuationFailure) -> None:
        target = spec.vertex if spec.vertex is not None else "*"
        reconciler = getattr(self.job, "reconciler", None)
        if reconciler is None:
            self._record("actuation_failure", target, "noop:supervision-disabled")
            return
        until = self.sim.now + spec.duration
        reconciler.fail_actuations(spec.vertex, until)
        self._record("actuation_failure", target, f"duration={spec.duration}")
        self._notify_scaler()
        self.sim.schedule(spec.duration, self._recovered, "actuation_restored", target)

    def _inject_actuation_delay(self, spec: ActuationDelay) -> None:
        target = spec.vertex if spec.vertex is not None else "*"
        reconciler = getattr(self.job, "reconciler", None)
        if reconciler is None:
            self._record("actuation_delay", target, "noop:supervision-disabled")
            return
        until = self.sim.now + spec.duration
        reconciler.delay_actuations(spec.vertex, spec.factor, until)
        self._record(
            "actuation_delay", target,
            f"factor={spec.factor},duration={spec.duration}",
        )
        self._notify_scaler()
        self.sim.schedule(spec.duration, self._recovered, "actuation_delay_end", target)

    def _inject_migration_failure(self, spec: MigrationFailure) -> None:
        target = spec.vertex if spec.vertex is not None else "*"
        reconciler = getattr(self.job, "reconciler", None)
        if reconciler is None or getattr(self.job, "state_manager", None) is None:
            self._record("migration_failure", target, "noop:stateless-or-unsupervised")
            return
        until = self.sim.now + spec.duration
        reconciler.fail_migrations(spec.vertex, until)
        self._record("migration_failure", target, f"duration={spec.duration}")
        self._notify_scaler()
        self.sim.schedule(spec.duration, self._recovered, "migration_restored", target)

    def _recovered(self, kind: str, target: str) -> None:
        self._record(kind, target)
        self._notify_scaler()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultInjector({self.plan.name!r}, {len(self.plan.events)} events)"
