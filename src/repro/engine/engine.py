"""Engine facade: configuration presets and the master-node control loop.

:class:`EngineConfig` bundles every tunable of the simulated SPE; its
presets mirror the paper's four motivation configurations (Sec. III-B):
``storm_like``, ``nephele_instant_flush``, ``nephele_fixed_buffer`` and
``nephele_adaptive`` (the latter optionally *elastic*, i.e. running the
paper's reactive scaling strategy).

:class:`StreamProcessingEngine` wires everything together: it deploys a
job graph, attaches QoS reporters/managers, and runs the master's control
loop — measurement ticks (reporter → manager), adjustment ticks (partial
summaries → global summary → constraint tracking → adaptive batching →
elastic scaler).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.core.constraints import ConstraintTracker, LatencyConstraint
from repro.engine.batching import (
    AdaptiveDeadlineBatching,
    BatchingStrategy,
    FixedSizeBatching,
    InstantFlush,
)
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.items import SampleView, SinkSamples
from repro.engine.resources import ResourceManager
from repro.engine.runtime import RuntimeGraph
from repro.engine.scheduler import Scheduler
from repro.engine.task import RuntimeTask
from repro.engine.udf import READ_READY
from repro.graphs.job_graph import JobGraph
from repro.qos.manager import QoSManager
from repro.qos.reporter import ChannelReporter, TaskReporter
from repro.qos.summary import GlobalSummary, merge_partial_summaries
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams

# Every optional subsystem is imported by the branch of ``submit`` /
# ``DeployedJob.__init__`` that constructs it (never inside ``run``), so a
# process compiles only what its jobs use; these names are annotations.
if TYPE_CHECKING:
    from repro.actuation.config import ActuationConfig
    from repro.actuation.reconciler import ReconciliationController
    from repro.core.batching_policy import AdaptiveBatchingPolicy
    from repro.core.elastic_scaler import ElasticScaler
    from repro.core.policy import PolicySpec
    from repro.engine.state import StateManager, StatefulVertexSpec
    from repro.obs.config import ObservabilityConfig
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.sampling import MetricsSampler, SamplingClock
    from repro.obs.trace import DecisionTrace
    from repro.simulation.faults import FaultInjector, FaultPlan


#: the fields a run turns into delays, intervals, sizes and counts, with
#: the bound each must meet: (minimum, strict) -> names
_FIELD_BOUNDS = {
    (0, False): (
        "base_latency", "per_batch_overhead", "per_item_overhead",
        "startup_delay", "recovery_cooldown", "inactivity_intervals",
    ),
    (0, True): (
        "bandwidth", "measurement_interval", "adjustment_interval",
        "checkpoint_interval",
    ),
    (1, False): (
        "queue_capacity", "channel_capacity", "item_size", "summary_window",
        "qos_managers", "worker_pool", "slots_per_worker",
    ),
}


@dataclass
class EngineConfig:
    """All tunables of the simulated engine in one place.

    A scaling policy's parameters are not among them: they are knobs of
    the job's policy spec (:mod:`repro.core.policy`).
    """

    #: output-batching strategy prototype, cloned per channel
    batching: BatchingStrategy = field(default_factory=InstantFlush)
    #: per-batch network latency model and shipping overheads
    base_latency: float = 0.0005
    bandwidth: float = 125_000_000.0
    per_batch_overhead: float = 0.00004
    per_item_overhead: float = 0.000002
    #: bounded input queue capacity per task (items)
    queue_capacity: int = 256
    #: per-channel outstanding-item capacity (credit limit)
    channel_capacity: int = 256
    #: serialized item size in bytes
    item_size: int = 256
    #: QoS measurement interval (paper: 1 s)
    measurement_interval: float = 1.0
    #: master adjustment interval (paper: 5 s)
    adjustment_interval: float = 5.0
    #: sliding window of past measurements pooled into summaries (Eq. 2)
    summary_window: int = 5
    #: number of QoS managers the tasks/channels are partitioned over
    qos_managers: int = 4
    #: whether the elastic scaler runs (the paper's strategy)
    elastic: bool = False
    #: adjustment intervals of post-scale-up inactivity (paper: 2)
    inactivity_intervals: int = 2
    #: post-fault cooldown on scale-downs (seconds; fault injection)
    recovery_cooldown: float = 15.0
    #: periodic checkpoint interval for stateful vertices (seconds).
    #: Shorter intervals cost more snapshot pauses but shrink the replay
    #: window charged to latency after a task crash (cost/recovery
    #: tradeoff; ignored by stateless jobs)
    checkpoint_interval: float = 15.0
    #: task startup delay in seconds (paper: 1-2 s)
    startup_delay: float = 1.5
    #: cluster size (paper: 130 workers x 4 cores)
    worker_pool: int = 130
    slots_per_worker: int = 4
    #: root RNG seed for reproducibility
    seed: int = 7

    def __post_init__(self) -> None:
        # A NaN or infinite timing would otherwise silence the control
        # loop or fail far from its cause, mid-run.
        for (minimum, strict), names in _FIELD_BOUNDS.items():
            for name in names:
                value = getattr(self, name)
                in_range = value > minimum if strict else value >= minimum
                if not (math.isfinite(value) and in_range):
                    raise ValueError(
                        f"EngineConfig.{name} must be finite and "
                        f"{'>' if strict else '>='} {minimum} (got {value!r})"
                    )

    # ------------------------------------------------------------------
    # presets mirroring the paper's configurations (Sec. III-B)
    # ------------------------------------------------------------------

    @classmethod
    def storm_like(cls, **overrides) -> "EngineConfig":
        """Apache-Storm-style: instant flushing, slightly higher overheads."""
        config = cls(batching=InstantFlush())
        config.per_batch_overhead = 0.00005
        return replace(config, **overrides)

    @classmethod
    def nephele_instant_flush(cls, **overrides) -> "EngineConfig":
        """Nephele-IF: instant flushing."""
        return replace(cls(batching=InstantFlush()), **overrides)

    @classmethod
    def nephele_fixed_buffer(cls, buffer_bytes: int = 16 * 1024, **overrides) -> "EngineConfig":
        """Nephele-16KiB: fixed output buffers, throughput-optimized."""
        return replace(cls(batching=FixedSizeBatching(buffer_bytes)), **overrides)

    @classmethod
    def nephele_adaptive(cls, elastic: bool = False, **overrides) -> "EngineConfig":
        """Nephele-<ℓ>ms: adaptive output batching, optionally elastic."""
        config = cls(batching=AdaptiveDeadlineBatching(), elastic=elastic)
        return replace(config, **overrides)


class DeployedJob:
    """One deployed job's full state: runtime graph, QoS plumbing, scaler.

    Several jobs may share one engine (and hence one worker pool) — the
    elasticity story's natural setting: no job needs permanent peak
    provisioning, so the pool is shared and leased on demand.
    """

    _ids = 0

    def __init__(
        self,
        engine: "StreamProcessingEngine",
        job_graph: JobGraph,
        constraints: Sequence[LatencyConstraint],
        vertex_probes: Dict[str, Callable[[float, object], None]],
        fault_plan: Optional[FaultPlan] = None,
        actuation: Optional[ActuationConfig] = None,
        policy: Optional[object] = None,
        stateful: Optional[Dict[str, StatefulVertexSpec]] = None,
        weight: float = 1.0,
    ) -> None:
        DeployedJob._ids += 1
        self.job_id = DeployedJob._ids
        self.engine = engine
        self.job_graph = job_graph
        config = engine.config
        # Open the job's slot account before any allocation so deployment
        # and every later scale-up are attributed.
        account_name = job_graph.name or f"job{self.job_id}"
        if any(a.name == account_name for a in engine.resources._accounts.values()):
            account_name = f"{account_name}#job{self.job_id}"
        self.account = engine.resources.register_job(self.job_id, account_name, weight)
        engine.resources.set_preemption_hook(self.job_id, self._preempt_slots)
        # Metric keys: the first job to claim a vertex name keeps the bare
        # key; later jobs reusing the name get job-qualified keys so two
        # jobs never silently mix metric rows.
        self._metric_keys: Dict[str, str] = {}
        for name in job_graph.vertices:
            owner = engine._vertex_key_owner.setdefault(name, self.job_id)
            self._metric_keys[name] = (
                name if owner == self.job_id else f"{name}#job{self.job_id}"
            )
        self.constraints: List[LatencyConstraint] = list(constraints)
        self.trackers: List[ConstraintTracker] = [ConstraintTracker(c) for c in self.constraints]
        self.runtime = RuntimeGraph(job_graph)
        self._managers: List[QoSManager] = [
            QoSManager(i, config.summary_window)
            for i in range(config.qos_managers)
        ]
        self._next_manager = 0
        self._vertex_probes = vertex_probes
        #: sink vertex name -> its e2e sample buffer (shared by its tasks)
        self._sink_samples: Dict[str, SinkSamples] = {
            name: SinkSamples(engine.sim)
            for name, vertex in job_graph.vertices.items()
            if not vertex.outputs
        }
        #: latest merged global summary (refreshed every adjustment interval)
        self.last_summary: Optional[GlobalSummary] = None
        self._batching_policy: Optional[AdaptiveBatchingPolicy] = None
        if self.constraints and isinstance(config.batching, AdaptiveDeadlineBatching):
            from repro.core.batching_policy import AdaptiveBatchingPolicy

            self._batching_policy = AdaptiveBatchingPolicy(self.constraints)
        # The first job uses the engine's root streams directly (keeps
        # single-job runs bit-identical to pre-multi-job behaviour);
        # later jobs fork independent streams.
        job_index = len(engine.jobs)
        job_streams = engine.streams if job_index == 0 else engine.streams.fork(job_index)
        self.scheduler = Scheduler(
            engine.sim,
            self.runtime,
            engine.resources,
            job_streams,
            batching_prototype=config.batching,
            network=engine.network,
            queue_capacity=config.queue_capacity,
            channel_capacity=config.channel_capacity,
            item_size=config.item_size,
            startup_delay=config.startup_delay,
            on_task_created=self._on_task_created,
            on_channel_created=self._on_channel_created,
            job_id=self.job_id,
        )
        self.scheduler.on_preempted = self._on_task_preempted
        obs = engine.observability
        #: structured scaler decision log (None when tracing is off)
        self.trace: Optional[DecisionTrace] = None
        if obs is not None and obs.trace:
            from repro.obs.trace import DecisionTrace

            self.trace = DecisionTrace()
        # A job-level policy (from the pipeline builder / submit) implies
        # elasticity for this job even when the engine default is
        # unelastic — `.scale(...)` means "scale". An elastic engine
        # gives a constrained job without one the paper's policy.
        #: the scaling-policy spec this job runs (None = unelastic job)
        self.policy_spec: Optional[PolicySpec] = None
        self.scaler: Optional[ElasticScaler] = None
        if policy is not None or (config.elastic and self.constraints):
            from repro.core.elastic_scaler import ElasticScaler
            from repro.core.policy import DEFAULT_POLICY, PolicyContext, parse_policy_spec

            spec = parse_policy_spec(policy if policy is not None else DEFAULT_POLICY)
            self.policy_spec = spec
            context = PolicyContext.for_job(job_graph, self.constraints)
            self.scaler = ElasticScaler(
                engine.sim,
                self.scheduler,
                self.runtime,
                spec.build(context),
                adjustment_interval=config.adjustment_interval,
                inactivity_intervals=config.inactivity_intervals,
                recovery_cooldown=config.recovery_cooldown,
            )
            self.scaler.trace_sink = self.trace
        #: actuation supervision (None = synchronous rescaling), set per
        #: job by the pipeline builder
        self.reconciler: Optional[ReconciliationController] = None
        if actuation is not None:
            from repro.actuation.reconciler import ReconciliationController

            self.reconciler = ReconciliationController(
                engine.sim,
                self.scheduler,
                self.runtime,
                actuation,
                job_streams,
                trace_sink=self.trace,
                job_name=job_graph.name,
            )
            if self.scaler is not None:
                self.scaler.reconciler = self.reconciler
        #: keyed-state manager (None = stateless job). Wired before
        #: deploy so it tracks every task, including later scale-ups.
        self.state_manager: Optional[StateManager] = None
        if stateful:
            from repro.engine.state import StateManager

            manager = StateManager(
                engine.sim,
                self.runtime,
                stateful,
                job_streams,
                checkpoint_interval=config.checkpoint_interval,
            )
            self.state_manager = manager
            # Every rescale path (reconciler migrations, synchronous
            # scaler calls, crash-without-restart shrinks) converges the
            # key partitioning to the new parallelism; crash recovery
            # restores the crashed partition from its last checkpoint
            # and charges the replay time to the restart delay.
            self.scheduler.on_rescaled = manager.sync_parallelism
            self.scheduler.on_task_failed = self._on_stateful_task_failed
            if self.reconciler is not None:
                self.reconciler.state_manager = manager
            if self.scaler is not None:
                self.scaler.state_manager = manager
        self.scheduler.deploy()
        if self.state_manager is not None:
            self.state_manager.start()
        #: armed fault injector (None for fault-free runs)
        self.fault_injector: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan:
            from repro.simulation.faults import FaultInjector

            self.fault_injector = FaultInjector(fault_plan, self).arm()
        # Measurement ticks strictly precede the adjustment tick sharing
        # the same instant (epsilon offset keeps the ordering stable
        # across periodic re-scheduling).
        self._measurement_process = engine.sim.every(
            config.measurement_interval, self._measurement_tick
        )
        self._adjustment_process = engine.sim.every(
            config.adjustment_interval,
            self._adjustment_tick,
            start_delay=config.adjustment_interval + 1e-6,
        )
        self._stopped = False

    # ------------------------------------------------------------------
    # wiring hooks
    # ------------------------------------------------------------------

    def _on_task_created(self, task: RuntimeTask) -> None:
        reporter = TaskReporter(
            task.vertex_name, task.task_id, read_ready=task.udf.latency_mode == READ_READY
        )
        task.reporter = reporter
        self._pick_manager().attach_task(task, reporter)
        if self.state_manager is not None:
            self.state_manager.track(task)
        if self.engine.metrics is not None:
            key = self._metric_keys.get(task.vertex_name, task.vertex_name)
            task.service_histogram = self.engine.metrics.histogram(
                f"service_time.{key}"
            ).observe
        samples = self._sink_samples.get(task.vertex_name)
        if samples is not None:
            task.process_probe = samples.record
        extra = self._vertex_probes.get(task.vertex_name)
        if extra is not None:
            previous = task.process_probe
            if previous is None:
                task.process_probe = extra
            else:
                def chained(latency, payload, first=previous, second=extra):
                    first(latency, payload)
                    second(latency, payload)

                task.process_probe = chained

    def _preempt_slots(self, slots: int, requester: str) -> int:
        """Arbitration hook: force-stop up to ``slots`` reducible tasks."""
        return self.scheduler.preempt_slots(slots, requester)

    def _on_task_preempted(self, task: RuntimeTask, requester: str) -> None:
        if self.trace is not None:
            from repro.obs.trace import BRANCH_PREEMPTED, TraceRecord

            rv = self.runtime.vertex(task.vertex_name)
            self.trace.append(TraceRecord(
                self.engine.sim.now, "*", BRANCH_PREEMPTED,
                vertex=task.vertex_name,
                job=self.job_graph.name,
                p_before=rv.parallelism + 1,
                p_applied=rv.parallelism,
                detail=f"preempted in favor of {requester}" if requester
                else "preempted by cluster arbitration",
            ))

    def _on_stateful_task_failed(self, task: RuntimeTask) -> float:
        """Crash hook: abort in-transfer migrations, run checkpoint restore.

        Returns the replay time (seconds) added to the task's restart
        delay — the latency cost of re-processing events since the last
        checkpoint.
        """
        manager = self.state_manager
        if manager is None or not manager.is_stateful(task.vertex_name):
            return 0.0
        if self.reconciler is not None:
            self.reconciler.abort_migrations(
                task.vertex_name, "task crash during state transfer"
            )
        return manager.on_task_failed(task)

    def _on_channel_created(self, channel: RuntimeChannel) -> None:
        reporter = ChannelReporter(channel.edge_name, channel.channel_id)
        channel.reporter = reporter
        self._pick_manager().attach_channel(channel, reporter)

    def _pick_manager(self) -> QoSManager:
        manager = self._managers[self._next_manager % len(self._managers)]
        self._next_manager += 1
        return manager

    # ------------------------------------------------------------------
    # master control loop
    # ------------------------------------------------------------------

    def _measurement_tick(self) -> None:
        now = self.engine.sim.now
        for manager in self._managers:
            manager.collect(now)

    def _adjustment_tick(self) -> None:
        now = self.engine.sim.now
        partials = [m.partial_summary(now) for m in self._managers]
        summary = merge_partial_summaries(now, partials)
        self.last_summary = summary
        for tracker in self.trackers:
            tracker.observe(now, summary)
        if self._batching_policy is not None:
            targets = self._batching_policy.compute_targets(summary)
            for manager in self._managers:
                manager.apply_batching_deadlines(targets)
        if self.scaler is not None:
            self.scaler.on_global_summary(summary)
        if self.reconciler is not None:
            violated = any(
                tracker.history and tracker.history[-1][2]
                for tracker in self.trackers
            )
            self.reconciler.on_adjustment_tick(violated)

    # ------------------------------------------------------------------
    # results and lifecycle
    # ------------------------------------------------------------------

    def parallelism(self, vertex_name: str) -> int:
        """Effective parallelism of a job vertex."""
        return self.runtime.parallelism(vertex_name)

    def drain_sink_samples(self, vertex_name: str) -> SampleView:
        """Take the (time, e2e latency) samples of a sink vertex.

        Returns a read-only sequence of float pairs in delivery order
        (empty for a sink that delivered nothing since the last drain);
        ``.latencies()`` is the latency column alone. Raises
        ``ValueError`` for a vertex that is not a sink of this job.
        """
        samples = self._sink_samples.get(vertex_name)
        if samples is None:
            raise ValueError(
                f"{vertex_name!r} is not a sink of job {self.job_graph.name!r} "
                f"(sinks: {sorted(self._sink_samples)})"
            )
        return samples.drain()

    def tracker_for(self, constraint: LatencyConstraint) -> ConstraintTracker:
        """The fulfillment tracker of one of this job's constraints."""
        for tracker in self.trackers:
            if tracker.constraint is constraint:
                return tracker
        raise KeyError(f"constraint {constraint.name!r} not submitted with this job")

    def check_assumptions(self, **checker_kwargs) -> list:
        """Check the paper's Sec. IV-A runtime assumptions for this job."""
        from repro.qos.diagnostics import AssumptionChecker, collect_per_task_measurements

        service, arrivals = collect_per_task_measurements(self._managers)
        return AssumptionChecker(**checker_kwargs).check(service, arrivals)

    def stop(self) -> None:
        """Tear this job down (releases its slots, stops its control loop)."""
        if self._stopped:
            return
        self._stopped = True
        self._measurement_process.stop()
        self._adjustment_process.stop()
        self.scheduler.stop_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DeployedJob(#{self.job_id}, {self.job_graph.name!r})"


class StreamProcessingEngine:
    """The simulated cluster: master, worker pool, clock and submitted jobs.

    Multiple jobs may be submitted to one engine; they share the worker
    pool. The engine holds only what is cluster-wide (``sim``,
    ``resources``, ``metrics``, ``jobs``); everything per-job — runtime
    graph, scheduler, scaler, trackers, summaries — lives on the
    :class:`DeployedJob` handle that :meth:`submit` returns.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        observability: Optional[ObservabilityConfig] = None,
    ) -> None:
        self.config = config or EngineConfig()
        #: observability opt-in (None = fully off; may also be adopted
        #: from a submitted BuiltPipeline's ``observe(...)`` setting)
        self.observability = observability
        #: metrics registry (None while metrics collection is off)
        self.metrics: Optional[MetricsRegistry] = None
        self._metrics_sampler: Optional[MetricsSampler] = None
        self._sampling_clocks: Dict[float, SamplingClock] = {}
        self._wall_start = time.monotonic()
        self.sim = Simulator()
        self.streams = RandomStreams(self.config.seed)
        self.network = NetworkModel(
            base_latency=self.config.base_latency,
            bandwidth=self.config.bandwidth,
            per_batch_overhead=self.config.per_batch_overhead,
            per_item_overhead=self.config.per_item_overhead,
        )
        self.resources = ResourceManager(
            self.sim, self.config.worker_pool, self.config.slots_per_worker
        )
        #: all deployed jobs, in submission order
        self.jobs: List[DeployedJob] = []
        #: which job first claimed each bare vertex name for metric keys
        #: (later jobs reusing the name get job-qualified keys)
        self._vertex_key_owner: Dict[str, int] = {}
        #: probes to install on the next submitted job's vertices
        self._pending_probes: Dict[str, Callable[[float, object], None]] = {}
        if self.observability is not None and self.observability.metrics:
            self._enable_metrics()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def sampling_clock(self, interval: float) -> SamplingClock:
        """The shared per-interval sampling clock (created on first use).

        All periodic observers (metrics sampler, series recorders) using
        the same interval share one clock, so they sample the same
        instants and the event heap carries one timer per interval.
        """
        clock = self._sampling_clocks.get(interval)
        if clock is None:
            from repro.obs.sampling import SamplingClock

            clock = SamplingClock(self.sim, interval)
            self._sampling_clocks[interval] = clock
        return clock

    def _enable_metrics(self) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.sampling import MetricsSampler

        self.metrics = MetricsRegistry()
        self._metrics_sampler = MetricsSampler(
            self, self.metrics, self.sampling_clock(self.observability.sample_interval)
        )

    @property
    def wall_time_s(self) -> float:
        """Wall-clock seconds since this engine was constructed."""
        return time.monotonic() - self._wall_start

    def export_run(self, directory: Optional[str] = None, job: Optional[DeployedJob] = None) -> Dict[str, str]:
        """Write manifest.json (+ metrics/trace JSONL) for a job's run.

        ``directory`` defaults to the observability config's export dir;
        ``job`` defaults to the engine's only job (an engine hosting
        several must be told which). Returns the written paths keyed by
        kind.
        """
        from repro.obs.manifest import export_run as _export_run

        if directory is None:
            directory = (
                self.observability.export_dir if self.observability is not None else None
            )
        if directory is None:
            raise ValueError(
                "no export directory: pass directory= or set "
                "ObservabilityConfig.export_dir"
            )
        return _export_run(job if job is not None else self._primary(), directory)

    # ------------------------------------------------------------------
    # deployment
    # ------------------------------------------------------------------

    def add_vertex_probe(self, vertex_name: str, probe: Callable[[float, object], None]) -> None:
        """Install a probe fired with (elapsed, payload) per processed item.

        Applies to the *next* :meth:`submit` call, so every task of the
        vertex (including later scale-ups) carries the probe.
        """
        self._pending_probes[vertex_name] = probe

    def submit(
        self,
        job_graph,
        constraints: Sequence[LatencyConstraint] = (),
        fault_plan: Optional[FaultPlan] = None,
        actuation: Optional[ActuationConfig] = None,
        policy: Optional[object] = None,
        stateful: Optional[Dict[str, StatefulVertexSpec]] = None,
        weight: float = 1.0,
    ) -> DeployedJob:
        """Deploy a job and start its master control loop.

        Accepts either a bare :class:`~repro.graphs.job_graph.JobGraph`
        (with explicit ``constraints``/``fault_plan``) or a
        :class:`~repro.builder.BuiltPipeline`, which carries its own
        constraints, fault plan and observability settings — the builder
        path. Anything else (a ``PipelineBuilder`` whose ``.build()`` was
        forgotten, ``None``) raises ``TypeError``.

        ``fault_plan`` arms a deterministic chaos scenario against the
        job (see :mod:`repro.simulation.faults`); the armed injector is
        available as ``DeployedJob.fault_injector``.

        ``policy`` selects the job's scaling policy — a registry spec
        string (``"drs:target_fraction=0.9"``) or a
        :class:`~repro.core.policy.PolicySpec`. Passing one implies
        elasticity for this job; None runs the paper's ScaleReactively
        on a constrained job when the engine config is ``elastic`` (and
        no scaler otherwise).

        ``weight`` sizes the job's weighted fair share of a shared
        cluster (see :mod:`repro.engine.admission`); a job alone on the
        pool is never constrained by it.
        """
        if not isinstance(job_graph, JobGraph):
            from repro.builder import BuiltPipeline, PipelineBuilder

            if not isinstance(job_graph, BuiltPipeline):
                hint = (
                    " (call .build() on the PipelineBuilder first)"
                    if isinstance(job_graph, PipelineBuilder) else ""
                )
                raise TypeError(
                    "submit() takes a JobGraph or a BuiltPipeline, not "
                    f"{type(job_graph).__name__}{hint}"
                )
            pipeline = job_graph
            if (
                constraints or fault_plan is not None or actuation is not None
                or policy is not None or stateful is not None
            ):
                raise TypeError(
                    "submit(pipeline) takes no separate constraints/fault_plan/"
                    "actuation/policy/stateful — they are part of the BuiltPipeline"
                )
            if self.observability is None and pipeline.observability is not None:
                self.observability = pipeline.observability
                if self.observability.metrics:
                    self._enable_metrics()
            job_graph = pipeline.graph
            constraints = pipeline.constraints
            fault_plan = pipeline.fault_plan
            actuation = pipeline.actuation
            policy = pipeline.policy
            stateful = pipeline.stateful or None
            if pipeline.share is not None:
                weight = pipeline.share
        for job in self.jobs:
            if job.job_graph is job_graph:
                raise RuntimeError("this job graph is already deployed")
        job_graph.validate()
        probes, self._pending_probes = self._pending_probes, {}
        job = DeployedJob(
            self, job_graph, constraints, probes,
            fault_plan=fault_plan, actuation=actuation, policy=policy,
            stateful=stateful, weight=weight,
        )
        self.jobs.append(job)
        return job

    def _primary(self) -> DeployedJob:
        """The engine's only job — for observers built before ``submit``.

        ``export_run()`` and ``SeriesRecorder`` may be created before
        the job exists, so they resolve it lazily here;
        on a shared cluster they must be given the job explicitly.
        """
        if not self.jobs:
            raise RuntimeError("no job submitted to this engine yet")
        if len(self.jobs) > 1:
            names = ", ".join(repr(job.job_graph.name) for job in self.jobs)
            raise ValueError(
                f"this engine hosts {len(self.jobs)} jobs ({names}); "
                "pass the DeployedJob explicitly"
            )
        return self.jobs[0]

    def tracker_for(self, constraint: LatencyConstraint) -> ConstraintTracker:
        """The fulfillment tracker of a submitted constraint (any job)."""
        for job in self.jobs:
            for tracker in job.trackers:
                if tracker.constraint is constraint:
                    return tracker
        raise KeyError(f"constraint {constraint.name!r} not submitted to this engine")

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` virtual seconds."""
        self.sim.run(until=self.sim.now + duration)

    def stop(self) -> None:
        """Tear all jobs down (finalizes resource accounting)."""
        for job in self.jobs:
            job.stop()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now
