"""One scenario description and the one way to build it.

The paper's evaluation (Sec. V) is the same engine and constraint re-run
across workloads, seeds and policies. A :class:`ScenarioSpec` is that
unit: a frozen, JSON-round-trippable record of *what runs* — workload
(from the :data:`WORKLOADS` registry), seed / rate / bound / duration,
scaling-policy spec, actuation supervision, explicit fault events with
their victim-pick seed, and workload-specific ``knobs`` — and
:func:`build` is the only place in the CLI, sweep and workload layers
that turns one into engine config, pipelines, faults, actuation and
observability, handing over to
:func:`repro.experiments.recording.deploy` for the engine itself.

``repro run``, ``repro chaos``, ``repro run --shared-cluster`` and
sweep shards are all argument→spec adapters over :func:`build`;
:func:`summarize` distills any finished scenario, single- or multi-job,
into the deterministic shard-result envelope that sweeps checkpoint and
merge.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, get_args

# A sweep parent has imported this module before it forks, and a
# forked shard must compile nothing. So what ``submit`` would import
# on the branch that needs it -- scaler and every built-in policy,
# reconciler, state manager, batching policy, metrics, sampling, trace --
# is loaded here, whichever of them the first scenario built happens to use.
import repro.actuation.reconciler  # noqa: F401
import repro.core.batching_policy  # noqa: F401
import repro.core.elastic_scaler  # noqa: F401
import repro.engine.state  # noqa: F401
import repro.obs.metrics  # noqa: F401
import repro.obs.sampling  # noqa: F401
import repro.obs.trace  # noqa: F401
from repro.actuation.config import ActuationConfig
from repro.builder import BuiltPipeline, PipelineBuilder
from repro.core.policy import DEFAULT_POLICY, ensure_builtin_policies, parse_policy_spec
from repro.engine.engine import EngineConfig
from repro.experiments.recording import Recording, deploy
from repro.obs.config import ObservabilityConfig
from repro.obs.manifest import graph_hash
from repro.simulation.faults import (
    FaultPlan,
    FaultSpec,
    MeasurementDropout,
    ServiceSpike,
)
from repro.simulation.randomness import Gamma
from repro.workloads.multi_job import (
    SHARED_CLUSTER_KNOBS,
    collect_shared_cluster_result,
    shared_cluster_pipelines,
)
from repro.workloads.rates import ConstantRate
from repro.workloads.twitter_job import (
    TwitterSentimentParams,
    build_twitter_sentiment_job,
)

ensure_builtin_policies()

#: result layout version of :func:`summarize`; bump on incompatible change
SHARD_SCHEMA_VERSION = 1

#: fault spec classes by the ``kind`` tag of their JSON form
FAULT_KINDS = {cls.__name__: cls for cls in get_args(FaultSpec)}


#: the sweep axes: what a grid shard sets, and what forms the key
AXES = ("seed", "rate", "bound", "workload", "actuation", "duration", "policy")


def group_key(params: Dict[str, object]) -> str:
    """The across-seeds grouping identity: the shard key minus the seed.

    One group holds exactly the seeds of one grid point — including the
    policy token (knobbed specs contribute a short hash, see
    :attr:`repro.core.policy.PolicySpec.key_token`), which is what lets
    the evaluation layer score policies head-to-head.
    """
    token = parse_policy_spec(params.get("policy", DEFAULT_POLICY)).key_token
    return (
        f"{params['workload']}-r{params['rate']:g}-b{params['bound'] * 1000:g}ms-"
        f"{'act' if params['actuation'] else 'sync'}-{token}"
    )


def _fault(data) -> FaultSpec:
    """A fault spec from its JSON form (instances pass through)."""
    if not isinstance(data, dict):
        return data
    kwargs = dict(data)
    kind = kwargs.pop("kind", None)
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} (have: {', '.join(sorted(FAULT_KINDS))})"
        )
    return FAULT_KINDS[kind](**kwargs)


@dataclass(frozen=True)
class ScenarioSpec:
    """Picklable, JSON-round-trippable description of one scenario run.

    The first seven fields are the sweep axes: they form :attr:`key` and
    are all a grid shard ever sets. The rest refine a scenario beyond the
    registry's presets (the ``chaos`` and ``run`` CLI adapters use them).
    """

    seed: int
    rate: float
    bound: float
    workload: str = "steady"
    actuation: bool = False
    duration: float = 60.0
    #: canonical policy spec string (validated against the registry)
    policy: str = DEFAULT_POLICY
    #: job-graph name of the linear workloads (None = ``sweep-<key>``);
    #: twitter and multi_job name their own graphs
    name: Optional[str] = None
    #: fault events injected on top of the workload's own preset
    faults: Tuple[FaultSpec, ...] = ()
    #: victim-selection seed of the fault plan (None = ``seed``)
    fault_seed: Optional[int] = None
    #: workload-specific settings; the workload's registry entry lists
    #: the accepted keys and their defaults (see :meth:`resolved`)
    knobs: Dict[str, object] = field(default_factory=dict)
    #: crash-isolation test hook: when set and the marker file does not
    #: exist yet, the worker process creates it and dies with
    #: FAIL_ONCE_EXIT_CODE — the retry then runs normally. Never part of
    #: params()/results, so checkpoints stay byte-identical.
    fail_once_marker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r} (have: {', '.join(WORKLOADS)})"
            )
        accepted = WORKLOADS[self.workload].knobs
        unknown = sorted(set(self.knobs) - set(accepted))
        if unknown:
            raise ValueError(
                f"workload {self.workload!r} has no knob {', '.join(unknown)} "
                f"(have: {', '.join(sorted(accepted)) or 'none'})"
            )
        for name, value in (
            ("seed", int(self.seed)),
            ("rate", float(self.rate)),
            ("bound", float(self.bound)),
            ("actuation", bool(self.actuation)),
            ("duration", float(self.duration)),
            ("policy", parse_policy_spec(self.policy).canonical()),
            ("faults", tuple(_fault(event) for event in self.faults)),
            ("knobs", dict(self.knobs)),
        ):
            object.__setattr__(self, name, value)
        # the rules SweepGrid holds every grid point to
        for name in ("rate", "bound", "duration"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def key(self) -> str:
        """Stable, filesystem-safe identity (also the sweep merge order)."""
        return f"{group_key(vars(self))}-s{self.seed:04d}"

    def resolved(self) -> Dict[str, object]:
        """The workload's knob defaults overlaid with this spec's knobs."""
        return {**WORKLOADS[self.workload].knobs, **self.knobs}

    def params(self) -> Dict[str, object]:
        """The deterministic parameters recorded in checkpoints.

        Exactly the seven axes for a grid shard; the refinements are
        added only when set, so a checkpoint is never mistaken for that
        of a scenario differing in faults or knobs.
        """
        data = {axis: getattr(self, axis) for axis in AXES}
        refinements = {
            "name": self.name,
            "faults": [
                {"kind": type(event).__name__, **asdict(event)} for event in self.faults
            ],
            "fault_seed": self.fault_seed,
            "knobs": dict(self.knobs),
        }
        data.update((k, v) for k, v in refinements.items() if v not in (None, [], {}))
        return data

    def to_dict(self) -> Dict[str, object]:
        """Full JSON/spawn payload (params plus test hooks)."""
        data = self.params()
        if self.fail_once_marker is not None:
            data["fail_once_marker"] = self.fail_once_marker
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        return cls(**data)


# ----------------------------------------------------------------------
# the workload registry
# ----------------------------------------------------------------------


class Workload(NamedTuple):
    """One registered workload: how to assemble its pipeline(s)."""

    #: spec -> the pipelines to submit, in submission order
    pipelines: Callable[[ScenarioSpec], List[BuiltPipeline]]
    #: accepted knobs and their defaults; a knob named like an
    #: :class:`~repro.engine.engine.EngineConfig` field configures the engine
    knobs: Dict[str, object]
    #: spec -> the workload's own fault preset, placed at fixed fractions
    #: of the run so every duration stays self-similar
    faults: Callable[[ScenarioSpec], Tuple[FaultSpec, ...]] = lambda spec: ()
    #: (source, sink) vertex names feeding the series recorder; None
    #: marks a multi-job workload (no recorder, no per-run obs bundle —
    #: two jobs cannot share one bundle directory)
    vertices: Optional[Tuple[str, str]] = ("source", "sink")


def _linear(spec: ScenarioSpec) -> List[BuiltPipeline]:
    """``source -> worker -> sink`` at a constant rate, one e2e constraint."""
    knobs = spec.resolved()
    builder = (
        PipelineBuilder(spec.name or f"sweep-{spec.key}")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(spec.rate))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=spec.bound, name=knobs["constraint_name"])
    )
    if knobs["stateful"]:
        builder.stateful("worker")
    return [builder.build()]


def _twitter(spec: ScenarioSpec) -> List[BuiltPipeline]:
    """The paper's TwitterSentiment job scaled to one spec's axes.

    Two synthetic "days" fit the duration; the load and topic bursts sit
    at fixed fractions of the run. ``spec.rate`` is the *total* tweet
    rate across the two sources and ``spec.bound`` maps onto the paper's
    sentiment constraint (constraint 1 keeps its 215 ms bound, dominated
    by the 200 ms HotTopics window).
    """
    params = TwitterSentimentParams(
        base_rate=spec.rate / 2.0,
        period=spec.duration / 2.0,
        bursts=((spec.duration * 0.5, spec.duration * 0.15, 2.5),),
        topic_bursts=((spec.duration * 0.5, spec.duration * 0.65, 0, 0.8),),
        sentiment_bound=spec.bound,
    )
    return [BuiltPipeline(*build_twitter_sentiment_job(params))]


def _spike(spec: ScenarioSpec) -> Tuple[FaultSpec, ...]:
    return (
        ServiceSpike(
            at=spec.duration * 0.25, vertex="worker", factor=3.0,
            duration=spec.duration * 0.15,
        ),
    )


def _dropout(spec: ScenarioSpec) -> Tuple[FaultSpec, ...]:
    return (MeasurementDropout(at=spec.duration * 0.25, duration=spec.duration * 0.15),)


#: knobs of the linear workloads: the constraint's name (None = the
#: constraint's derived default), whether the worker carries
#: key-partitioned state, and the stateful checkpoint interval
_LINEAR_KNOBS = {"constraint_name": "e2e", "stateful": False, "checkpoint_interval": 15.0}

#: every workload a scenario may name, in sweep-axis order. ``steady`` is
#: the plain constant-rate pipeline; ``spike`` adds a deterministic
#: service-time spike on the worker, ``dropout`` a QoS measurement
#: dropout window; ``twitter`` runs the paper's six-vertex
#: TwitterSentiment job (diurnal rate + burst); ``stateful`` is the spike
#: pipeline with a stateful worker (migration-priced rescales,
#: checkpoint-restore crash recovery), so migration-aware policies
#: separate from the blind ones on the same deterministic violation; and
#: ``multi_job`` is the shared-cluster benchmark of
#: :mod:`repro.workloads.multi_job` (two elastic jobs on a pool too small
#: for both peaks, under weighted fair-share admission).
WORKLOADS: Dict[str, Workload] = {
    "steady": Workload(_linear, _LINEAR_KNOBS),
    "spike": Workload(_linear, _LINEAR_KNOBS, faults=_spike),
    "dropout": Workload(_linear, _LINEAR_KNOBS, faults=_dropout),
    "twitter": Workload(_twitter, {}, vertices=("TweetSource", "Sink")),
    "stateful": Workload(_linear, {**_LINEAR_KNOBS, "stateful": True}, faults=_spike),
    "multi_job": Workload(shared_cluster_pipelines, SHARED_CLUSTER_KNOBS, vertices=None),
}

#: the workloads that run one job (what ``run --scenario`` accepts; the
#: shared cluster has its own flag)
SINGLE_JOB_WORKLOADS = tuple(
    name for name, workload in WORKLOADS.items() if workload.vertices is not None
)

_ENGINE_FIELDS = frozenset(f.name for f in fields(EngineConfig))


# ----------------------------------------------------------------------
# build and summarize
# ----------------------------------------------------------------------


def build(
    spec: ScenarioSpec, export_dir: Optional[str] = None, pin_wall_time: bool = True
):
    """The configured engine with the scenario's jobs submitted (not run).

    Returns ``(engine, jobs, recorder)``; ``recorder`` is the 5-s
    :class:`~repro.experiments.recording.SeriesRecorder` with an ``e2e``
    sink feed, or None for multi-job workloads. ``export_dir`` switches
    observability on for single-job workloads (``engine.export_run()``
    then writes the bundle there); ``pin_wall_time`` keeps the exported
    manifest byte-identical across same-seed runs.
    """
    workload = WORKLOADS[spec.workload]
    config = EngineConfig(
        elastic=True, seed=spec.seed,
        **{k: v for k, v in spec.resolved().items() if k in _ENGINE_FIELDS},
    )
    pipelines = workload.pipelines(spec)
    policy = parse_policy_spec(spec.policy)
    faults = workload.faults(spec) + spec.faults
    targets = {getattr(event, "vertex", None) for event in faults} - {None}
    for pipeline in pipelines:
        pipeline.policy = policy
        if spec.actuation:
            pipeline.actuation = ActuationConfig()
        if faults:
            unknown = sorted(targets - set(pipeline.graph.vertices))
            if unknown:
                raise ValueError(
                    f"faults target unknown vertex {', '.join(unknown)} "
                    f"(have: {sorted(pipeline.graph.vertices)})"
                )
            pipeline.fault_plan = FaultPlan(
                faults,
                seed=spec.seed if spec.fault_seed is None else spec.fault_seed,
                name=pipeline.graph.name,
            )
    recording = None
    if workload.vertices is not None:
        (pipeline,) = pipelines
        if export_dir is not None:
            pipeline.observability = ObservabilityConfig(
                export_dir=export_dir, pin_wall_time=pin_wall_time
            )
        source, sink = workload.vertices
        recording = Recording(5.0, source, {"e2e": sink})
    return deploy(config, pipelines, recording)


def reaction_time_s(trackers, events) -> Optional[float]:
    """Mean scaler reaction time to constraint-violation onsets.

    An *onset* is a tracker-history transition into violation; the
    reaction is the delay until the first scaler activation at or after
    the onset. Returns the mean over all onsets with a matching
    activation, or None when the run had no onsets (nothing to react to)
    or no activation ever followed one.
    """
    onsets = []
    for tracker in trackers:
        previous = False
        for entry in tracker.history:
            now, violated = entry[0], bool(entry[-1])
            if violated and not previous:
                onsets.append(now)
            previous = violated
    if not onsets:
        return None
    event_times = sorted(event.time for event in events)
    reactions = []
    for onset in onsets:
        for event_time in event_times:
            if event_time >= onset:
                reactions.append(event_time - onset)
                break
    if not reactions:
        return None
    return sum(reactions) / len(reactions)


def _component_summaries(jobs, attribute: str):
    """``summary()`` of each job's ``attribute`` (reconciler, state manager).

    None when no job has the component; the bare summary for a
    single-job scenario, the per-job list for a multi-job one.
    """
    summaries = [
        getattr(job, attribute).summary()
        for job in jobs
        if getattr(job, attribute) is not None
    ]
    if not summaries:
        return None
    return summaries if len(jobs) > 1 else summaries[0]


def summarize(spec: ScenarioSpec, engine, jobs, recorder) -> Dict[str, object]:
    """The deterministic result envelope of a finished scenario.

    No wall clock, no object ids — the dict a sweep checkpoints as
    ``result.json`` and merges. For a multi-job scenario the vertex
    names in ``final_parallelism`` are job-qualified (the jobs reuse
    source/worker/sink), the scaler counters are summed over jobs,
    ``series`` carries only the cluster-wide task seconds, and the
    per-job summaries, Jain's fairness and the admission/preemption
    counters ride along under ``jobs``/``fairness``/``cluster``.
    """
    multi = len(jobs) > 1
    shared = collect_shared_cluster_result(engine, jobs) if multi else {}
    scaled = [job for job in jobs if job.scaler is not None]
    scaling: Optional[Dict[str, object]] = None
    if scaled:
        scalers = [job.scaler for job in scaled]
        reactions = [reaction_time_s(job.trackers, job.scaler.events) for job in scaled]
        reactions = [r for r in reactions if r is not None]
        scaling = {
            "policy": scalers[0].policy_name,
            "rounds": sum(s.rounds for s in scalers),
            "activations": sum(len(s.events) for s in scalers),
            "skipped_stale": sum(s.skipped_stale for s in scalers),
            "suppressed_scale_downs": sum(s.suppressed_scale_downs for s in scalers),
            "reaction_time_s": sum(reactions) / len(reactions) if reactions else None,
        }
    result: Dict[str, object] = {
        "shard_schema": SHARD_SCHEMA_VERSION,
        "key": spec.key,
        "params": spec.params(),
        "graph_hash": "+".join(graph_hash(job.job_graph) for job in jobs),
        "virtual_time_s": engine.now,
        "fired_events": engine.sim.fired_events,
        "final_parallelism": {
            (f"{job.job_graph.name}.{name}" if multi else name): rv.parallelism
            for job in jobs
            for name, rv in job.runtime.vertices.items()
        },
        "constraints": [
            {
                "name": tracker.constraint.name,
                "bound": tracker.constraint.bound,
                "fulfillment_ratio": tracker.fulfillment_ratio,
                "violations": tracker.violations,
                "intervals": tracker.intervals_observed,
            }
            for job in jobs
            for tracker in job.trackers
        ],
        "scaling": scaling,
        "actuation": _component_summaries(jobs, "reconciler"),
        "state": _component_summaries(jobs, "state_manager"),
        "series": (
            recorder.summary()
            if recorder is not None
            else {
                "mean_cpu_utilization": None,
                "task_seconds": engine.resources.task_seconds(),
            }
        ),
    }
    result.update(shared)
    return result


__all__ = [
    "AXES",
    "FAULT_KINDS",
    "SHARD_SCHEMA_VERSION",
    "SINGLE_JOB_WORKLOADS",
    "ScenarioSpec",
    "WORKLOADS",
    "Workload",
    "build",
    "group_key",
    "reaction_time_s",
    "summarize",
]
