"""The master-side scheduler: deployment and elastic scaling actions.

The scheduler instantiates the runtime graph from the job graph (one task
per degree of parallelism, channels per wiring pattern), and executes the
scaling actions issued by the elastic scaler:

* **scale-up** — new tasks spawn after a startup delay (the paper reports
  1-2 s for starting tasks via Nephele's scheduler) and are wired into
  the producers' partitioners once running;
* **scale-down** — victims are removed from upstream partitioners
  immediately, then *drain*: they keep processing queued and in-flight
  items and only release their slot once empty (the paper notes
  scale-downs take longer because "intermediate queues need to be
  drained").
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.batching import BatchingStrategy
from repro.engine.resources import ResourceManager
from repro.engine.runtime import RuntimeGraph, RuntimeVertex
from repro.engine.task import OutputGate, RuntimeTask
from repro.graphs.job_graph import JobEdge, JobGraph, JobVertex
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams


class ScalingResult(NamedTuple):
    """Outcome of one :meth:`Scheduler.set_parallelism` call.

    ``requested`` is the signed change towards the (bounds-clamped)
    target; ``applied`` is the signed change actually initiated. They
    differ on scale-down when fewer tasks are drainable than asked
    (tasks below ``min_parallelism`` and still-pending additions are
    never drained) — ``requested < 0`` with ``applied == 0`` means the
    reduction was suppressed entirely.

    A scale-up is only ever reported as applied once the cluster's
    admission controller holds its slots; ``denied`` marks a scale-up
    the admission controller refused (``applied == 0``, ``reason``
    explains why). Denial is retryable — the reconciler re-issues the
    request on later ticks.
    """

    requested: int
    applied: int
    denied: bool = False
    reason: str = ""

    @property
    def partial(self) -> bool:
        """Whether only part of the requested change was initiated.

        The reconciler treats a partial application as unfinished work:
        the vertex's desired parallelism is kept and the remainder is
        re-issued on the next adjustment tick.
        """
        return self.applied != self.requested


class Scheduler:
    """Places tasks in worker slots and executes scaling actions."""

    def __init__(
        self,
        sim: Simulator,
        runtime: RuntimeGraph,
        resources: ResourceManager,
        streams: RandomStreams,
        batching_prototype: BatchingStrategy,
        network: NetworkModel,
        queue_capacity: int = 256,
        channel_capacity: int = 256,
        item_size: int = 256,
        startup_delay: float = 1.5,
        on_task_created: Optional[Callable[[RuntimeTask], None]] = None,
        on_channel_created: Optional[Callable[[RuntimeChannel], None]] = None,
        job_id: object = None,
    ) -> None:
        self.sim = sim
        self.runtime = runtime
        self.resources = resources
        self.streams = streams
        self.batching_prototype = batching_prototype
        self.network = network
        self.queue_capacity = queue_capacity
        self.channel_capacity = channel_capacity
        self.item_size = item_size
        self.startup_delay = startup_delay
        self.on_task_created = on_task_created
        self.on_channel_created = on_channel_created
        #: slot-account identity used for admission requests; None means
        #: the resource manager's anonymous default account
        self.job_id = job_id
        #: optional hook called as ``(task, requester_name)`` right after
        #: a task is force-stopped by cluster arbitration
        self.on_preempted: Optional[Callable[[RuntimeTask, str], None]] = None
        #: optional hook called with the crashing task *before* it fails;
        #: returns extra recovery seconds added to the restart delay
        #: (checkpoint-restore replay — set only for stateful jobs)
        self.on_task_failed: Optional[Callable[[RuntimeTask], float]] = None
        #: optional hook called with the vertex name after any action that
        #: changed its target parallelism (state repartition sync)
        self.on_rescaled: Optional[Callable[[str], None]] = None
        # lifetime counters (sampled as ``scheduler.*`` metrics)
        self.deploys = 0
        self.tasks_started = 0
        self.admission_denials = 0
        self.scale_up_aborts = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.preemptions = 0
        self.task_failures = 0
        self.task_restarts = 0
        self.restart_denials = 0

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def deploy(self) -> None:
        """Instantiate the runtime graph at the job graph's initial parallelism."""
        graph = self.runtime.job_graph
        for job_vertex in graph.topological_order():
            rv = self.runtime.vertex(job_vertex.name)
            for _ in range(job_vertex.parallelism):
                self._create_task(rv)
        for edge in graph.edges:
            self._wire_edge_full_mesh(edge)
        for job_vertex in graph.topological_order():
            for task in self.runtime.vertex(job_vertex.name).tasks:
                task.start()
        self.deploys += 1

    def _create_task(self, rv: RuntimeVertex) -> RuntimeTask:
        job_vertex = rv.job_vertex
        index = rv.next_subtask_index()
        rng = self.streams.get(f"task:{job_vertex.name}:{index}")
        task = RuntimeTask(
            self.sim,
            job_vertex.name,
            index,
            job_vertex.udf_factory(),
            rng,
            queue_capacity=self.queue_capacity,
            item_size=self.item_size,
        )
        profile = getattr(job_vertex, "rate_profile", None)
        if profile is not None:
            task.rate_profile = profile
        task.on_stopped = self._on_task_stopped
        self.resources.allocate_slot(task, self.job_id)
        rv.tasks.append(task)
        # Gates exist from creation so wiring can happen before start().
        for gate_index, edge in enumerate(job_vertex.outputs):
            task.out_gates.append(
                OutputGate(
                    self.sim,
                    task,
                    edge.name,
                    edge.pattern,
                    self.batching_prototype.clone(),
                    self.network,
                    key_fn=edge.key_fn,
                    start=index,
                )
            )
        if self.on_task_created is not None:
            self.on_task_created(task)
        self.tasks_started += 1
        return task

    def _wire_edge_full_mesh(self, edge: JobEdge) -> None:
        producers = self.runtime.vertex(edge.source.name).active_tasks()
        consumers = self.runtime.vertex(edge.target.name).active_tasks()
        for producer in producers:
            gate = self._gate_of(producer, edge.name)
            channels = [self._create_channel(producer, consumer, edge) for consumer in consumers]
            gate.set_channels(channels)

    def _gate_of(self, task: RuntimeTask, edge_name: str) -> OutputGate:
        for gate in task.out_gates:
            if gate.edge_name == edge_name:
                return gate
        raise KeyError(f"task {task.task_id} has no gate for edge {edge_name!r}")

    def _create_channel(
        self, producer: RuntimeTask, consumer: RuntimeTask, edge: JobEdge
    ) -> RuntimeChannel:
        channel = RuntimeChannel(
            self.sim,
            consumer,
            self.network,
            edge.name,
            capacity=self.channel_capacity,
        )
        channel.producer = producer
        consumer.in_channels.append(channel)
        self.runtime.register_channel(channel)
        if self.on_channel_created is not None:
            self.on_channel_created(channel)
        return channel

    # ------------------------------------------------------------------
    # scaling actions
    # ------------------------------------------------------------------

    def set_parallelism(self, vertex_name: str, target: int) -> ScalingResult:
        """Scale a vertex towards ``target`` parallelism.

        Returns a :class:`ScalingResult` with the signed change towards
        the clamped target (``requested``) and the signed change actually
        initiated (``applied``). Pending scale-ups count as initiated, so
        repeated calls are idempotent.

        A scale-up first reserves its slots with the cluster's admission
        controller; on denial nothing is announced and the result carries
        ``denied=True`` with the reason. A granted scale-up therefore
        *holds* the slots it will consume when it materializes after the
        startup delay — deferred materialization cannot fail.
        """
        rv = self.runtime.vertex(vertex_name)
        job_vertex = rv.job_vertex
        target = job_vertex.clamp(target)
        current = rv.target_parallelism
        if target > current:
            count = target - current
            grant = self.resources.request_slots(self.job_id, count)
            if not grant.admitted:
                self.admission_denials += 1
                return ScalingResult(count, 0, denied=True, reason=grant.reason)
            self._announce_scale_up(rv, count)
            self._notify_rescaled(vertex_name)
            return ScalingResult(count, count)
        if target < current:
            # Never drain tasks that have not materialized yet; reductions
            # apply to live tasks only.
            reducible = min(current - target, rv.parallelism - job_vertex.min_parallelism)
            reducible = max(0, min(reducible, rv.parallelism - 1))
            if reducible > 0:
                self.scale_down(vertex_name, reducible)
                self._notify_rescaled(vertex_name)
            return ScalingResult(target - current, -reducible)
        return ScalingResult(0, 0)

    def _notify_rescaled(self, vertex_name: str) -> None:
        if self.on_rescaled is not None:
            self.on_rescaled(vertex_name)

    def _announce_scale_up(self, rv: RuntimeVertex, count: int) -> None:
        rv.pending_additions += count
        self.sim.schedule(self.startup_delay, self._materialize_scale_up, rv, count)

    def _materialize_scale_up(self, rv: RuntimeVertex, count: int) -> None:
        rv.pending_additions -= count
        # All-or-nothing: the reservation held since request time
        # guarantees this capacity exists. If it somehow does not (a
        # direct caller bypassed admission), abort the whole batch before
        # creating anything — a mid-loop failure would leave some tasks
        # created and gate-wired with pending_additions already settled.
        if self.resources.free_slots_available() < count:
            self.resources.cancel_reservation(self.job_id, count)
            self.scale_up_aborts += 1
            self._notify_rescaled(rv.name)
            return
        new_tasks = [self._create_task(rv) for _ in range(count)]
        job_vertex = rv.job_vertex
        # Wire inbound: every active producer of each inbound edge gains
        # channels to the new tasks.
        for edge in job_vertex.inputs:
            for producer in self.runtime.vertex(edge.source.name).active_tasks():
                gate = self._gate_of(producer, edge.name)
                added = [self._create_channel(producer, task, edge) for task in new_tasks]
                gate.set_channels(list(gate.channels) + added)
        # Wire outbound: the new tasks gain channels to all active consumers.
        for edge in job_vertex.outputs:
            consumers = self.runtime.vertex(edge.target.name).active_tasks()
            for task in new_tasks:
                gate = self._gate_of(task, edge.name)
                gate.set_channels(
                    [self._create_channel(task, consumer, edge) for consumer in consumers]
                )
        for task in new_tasks:
            task.start()
        self.scale_ups += 1

    def scale_down(self, vertex_name: str, count: int) -> None:
        """Gracefully remove ``count`` tasks (youngest first)."""
        if count <= 0:
            return
        rv = self.runtime.vertex(vertex_name)
        active = rv.active_tasks()
        count = min(count, len(active) - 1)  # never drain the last task
        if count <= 0:
            return
        victims = sorted(active, key=lambda t: t.subtask_index)[-count:]
        self._unwire_from_producers(rv, victims)
        for victim in victims:
            victim.begin_drain()
        self.scale_downs += 1

    def _unwire_from_producers(self, rv: RuntimeVertex, victims: List[RuntimeTask]) -> None:
        """Remove ``victims`` from all upstream partitioners so no new
        items are routed to them."""
        victim_set = set(id(t) for t in victims)
        for edge in rv.job_vertex.inputs:
            for producer in self.runtime.vertex(edge.source.name).tasks:
                if producer.state == "stopped":
                    continue
                try:
                    gate = self._gate_of(producer, edge.name)
                except KeyError:  # pragma: no cover - defensive
                    continue
                kept = [c for c in gate.channels if id(c.consumer) not in victim_set]
                if len(kept) != len(gate.channels):
                    gate.set_channels(kept)

    # ------------------------------------------------------------------
    # preemption (cluster arbitration)
    # ------------------------------------------------------------------

    def preempt_slots(self, count: int, requester: str = "") -> int:
        """Force-stop up to ``count`` reducible tasks for another job.

        Victims are taken from the vertex with the most reducible tasks
        first (ties broken by name), youngest task first — mirroring
        scale-down's choice, but *abruptly*: a preempted task's queued
        work is discarded and its slot is released synchronously, so the
        requester can be granted the slots in the same admission call.
        Returns how many slots were actually freed.
        """
        freed = 0
        while freed < count:
            choice = self._pick_preemption_victim()
            if choice is None:
                break
            rv, victim = choice
            self._unwire_from_producers(rv, [victim])
            victim.fail()  # releases the slot synchronously via on_stopped
            freed += 1
            self.preemptions += 1
            if self.on_preempted is not None:
                self.on_preempted(victim, requester)
            self._notify_rescaled(rv.name)
        return freed

    def _pick_preemption_victim(self):
        best_rv = None
        best_headroom = 0
        for name in sorted(self.runtime.vertices):
            rv = self.runtime.vertices[name]
            headroom = min(
                rv.parallelism - rv.job_vertex.min_parallelism, rv.parallelism - 1
            )
            if headroom > best_headroom:
                best_rv, best_headroom = rv, headroom
        if best_rv is None:
            return None
        victim = max(best_rv.active_tasks(), key=lambda t: t.subtask_index)
        return best_rv, victim

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------

    def fail_task(self, task: RuntimeTask, restart_delay: Optional[float] = None) -> bool:
        """Crash ``task`` abruptly; optionally restart a replacement.

        The crashed task's queued work is lost (:meth:`RuntimeTask.fail`)
        and its slot is reclaimed immediately. With ``restart_delay`` set,
        a replacement task is announced at once (so the vertex's target
        parallelism is unchanged and the scaler does not double-react) and
        materializes after the delay — rewired into all live partitioners
        with a fresh QoS reporter, exactly like an elastic scale-up.
        Returns whether the task was actually live.
        """
        if task.state == "stopped":
            return False
        rv = self.runtime.vertex(task.vertex_name)
        rv.crashes += 1
        # The state hook sees the task while it is still active (its rank
        # identifies the lost partition) and returns the replay delay of
        # checkpoint-restore recovery.
        recovery_delay = 0.0
        if self.on_task_failed is not None:
            recovery_delay = self.on_task_failed(task)
        task.fail()
        self.task_failures += 1
        if restart_delay is not None:
            if restart_delay < 0:
                raise ValueError(f"restart_delay must be >= 0 (got {restart_delay})")
            # The crash just freed a slot, so the reservation is normally
            # granted — unless another job raced it away on a contended
            # pool, in which case the restart is skipped (permanent loss)
            # rather than crashing at materialization time.
            grant = self.resources.request_slots(self.job_id, 1)
            if grant.admitted:
                rv.pending_additions += 1
                self.sim.schedule(
                    restart_delay + recovery_delay, self._materialize_scale_up, rv, 1
                )
                self.task_restarts += 1
            else:
                self.restart_denials += 1
                self._notify_rescaled(task.vertex_name)
        else:
            # No replacement: the vertex permanently lost a degree of
            # parallelism, so keyed state must repartition onto survivors.
            self._notify_rescaled(task.vertex_name)
        return True

    def fail_worker(
        self, worker, restart_delay: Optional[float] = None
    ) -> List[RuntimeTask]:
        """Crash every task hosted on ``worker`` (worker-node loss).

        Returns the tasks that were crashed. Replacement tasks (when
        ``restart_delay`` is set) are placed by the resource manager and
        may land on other workers.
        """
        victims = [t for t in worker.hosted_tasks() if t.state != "stopped"]
        for task in victims:
            self.fail_task(task, restart_delay)
        return victims

    def _on_task_stopped(self, task: RuntimeTask) -> None:
        self.resources.release_slot(task)
        rv = self.runtime.vertex(task.vertex_name)
        if task in rv.tasks:
            rv.tasks.remove(task)
        # Close and unregister this task's outbound channels.
        for gate in task.out_gates:
            for channel in gate.channels:
                channel.close()
                self.runtime.unregister_channel(channel)
                if channel in channel.consumer.in_channels:
                    channel.consumer.in_channels.remove(channel)
        # Unregister the (already closed) inbound channels.
        for channel in task.in_channels:
            self.runtime.unregister_channel(channel)

    def stop_all(self) -> None:
        """Tear the whole job down (end of experiment)."""
        for task in self.runtime.all_tasks():
            if task.state != "stopped":
                task._finish_stop()
