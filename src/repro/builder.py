"""A fluent builder for linear streaming pipelines.

:class:`JobGraph` is the general API (arbitrary DAGs, explicit wiring);
for the common case — a linear chain from one source to one sink with a
latency constraint over the middle — :class:`PipelineBuilder` removes the
boilerplate:

>>> from repro.builder import PipelineBuilder
>>> from repro import ConstantRate, Gamma
>>> job = (
...     PipelineBuilder("scores")
...     .source(lambda now, rng: rng.random(), rate=ConstantRate(100.0))
...     .map("square", lambda x: x * x, service=Gamma(0.004, 0.7), parallelism=(2, 1, 16))
...     .filter("positives", lambda x: x > 0.25, service=Gamma(0.001, 0.5))
...     .sink()
...     .constrain(bound=0.030)
...     .build()
... )
>>> job.graph.vertex("square").elastic
True

``build()`` returns a :class:`BuiltPipeline` carrying the job graph and
the declared constraints, ready for
:meth:`~repro.engine.engine.StreamProcessingEngine.submit`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.constraints import LatencyConstraint
from repro.engine.udf import FilterUDF, FlatMapUDF, MapUDF, SinkUDF, SourceUDF, UDF
from repro.obs.config import ObservabilityConfig
from repro.graphs.job_graph import JobGraph, JobVertex
from repro.graphs.sequences import JobSequence
from repro.simulation.randomness import Distribution
from repro.workloads.rates import RateProfile

# Imported by the method that builds them (actuate / stateful / scale /
# build), so a plain pipeline compiles none of these subsystems.
if TYPE_CHECKING:
    from repro.actuation.config import ActuationConfig
    from repro.core.policy import PolicySpec
    from repro.engine.state import StatefulVertexSpec
    from repro.simulation.faults import FaultPlan, FaultSpec

#: parallelism spec: a fixed int, or (initial, min, max)
ParallelismSpec = Union[int, Tuple[int, int, int]]


class BuiltPipeline:
    """The builder's output: job graph, latency constraints, chaos plan."""

    def __init__(
        self,
        graph: JobGraph,
        constraints: List[LatencyConstraint],
        fault_plan: Optional[FaultPlan] = None,
        observability: Optional[ObservabilityConfig] = None,
        actuation: Optional[ActuationConfig] = None,
        policy: Optional[PolicySpec] = None,
        stateful: Optional[dict] = None,
        share: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.constraints = constraints
        #: deterministic chaos scenario armed at submit (None = fault-free)
        self.fault_plan = fault_plan
        #: observability settings adopted by the engine at submit
        #: (None = leave the engine's own setting untouched)
        self.observability = observability
        #: actuation supervision for this job (None = synchronous
        #: rescaling)
        self.actuation = actuation
        #: scaling-policy spec from ``.scale(...)`` (None = the paper's
        #: policy if the engine is elastic; a set spec implies elasticity)
        self.policy = policy
        #: stateful vertex declarations from ``.stateful(...)``
        #: ({vertex name -> StatefulVertexSpec}; empty = stateless job)
        self.stateful: dict = dict(stateful or {})
        #: shared-cluster fair-share weight from ``.share(...)`` (None =
        #: the default weight 1)
        self.share = share

    def __repr__(self) -> str:
        faults = len(self.fault_plan.events) if self.fault_plan else 0
        return (
            f"BuiltPipeline({self.graph!r}, {len(self.constraints)} constraints, "
            f"{faults} faults)"
        )


def _split_parallelism(spec: ParallelismSpec) -> Tuple[int, int, int]:
    if isinstance(spec, int):
        return spec, spec, spec
    initial, low, high = spec
    return initial, low, high


class PipelineBuilder:
    """Builds ``source -> stage* -> sink`` pipelines fluently."""

    def __init__(self, name: str) -> None:
        self.graph = JobGraph(name)
        self._last: Optional[JobVertex] = None
        self._source: Optional[JobVertex] = None
        self._sink: Optional[JobVertex] = None
        self._pattern_for_next = "round_robin"
        self._key_fn_for_next: Optional[Callable[[object], object]] = None
        self._constraints: List[LatencyConstraint] = []
        self._fault_events: List[FaultSpec] = []
        self._fault_seed = 0
        self._observability: Optional[ObservabilityConfig] = None
        self._actuation: Optional[ActuationConfig] = None
        self._policy: Optional[PolicySpec] = None
        self._stateful: dict = {}
        self._share: Optional[float] = None

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def source(
        self,
        generator: Callable[[float, object], object],
        rate: RateProfile,
        name: str = "source",
        parallelism: int = 1,
    ) -> "PipelineBuilder":
        """Add the (single) source stage with its rate profile."""
        if self._source is not None:
            raise ValueError("pipeline already has a source")
        vertex = self.graph.add_vertex(
            name, lambda: SourceUDF(generator), parallelism=parallelism
        )
        vertex.rate_profile = rate
        self._source = vertex
        self._last = vertex
        return self

    def stage(
        self,
        name: str,
        udf_factory: Callable[[], UDF],
        parallelism: ParallelismSpec = 1,
    ) -> "PipelineBuilder":
        """Add an arbitrary UDF stage (factory called once per task)."""
        if self._last is None:
            raise ValueError("add a source first")
        if self._sink is not None:
            raise ValueError("pipeline already ended with sink()")
        initial, low, high = _split_parallelism(parallelism)
        vertex = self.graph.add_vertex(
            name, udf_factory, parallelism=initial,
            min_parallelism=low, max_parallelism=high,
        )
        self.graph.connect(
            self._last, vertex,
            pattern=self._pattern_for_next,
            key_fn=self._key_fn_for_next,
        )
        self._pattern_for_next = "round_robin"
        self._key_fn_for_next = None
        self._last = vertex
        return self

    def map(
        self,
        name: str,
        fn: Callable[[object], object],
        service: Optional[Distribution] = None,
        parallelism: ParallelismSpec = 1,
    ) -> "PipelineBuilder":
        """Add a 1-in/1-out transform stage."""
        return self.stage(name, lambda: MapUDF(fn, service_dist=service), parallelism)

    def filter(
        self,
        name: str,
        predicate: Callable[[object], bool],
        service: Optional[Distribution] = None,
        parallelism: ParallelismSpec = 1,
    ) -> "PipelineBuilder":
        """Add a predicate stage."""
        return self.stage(
            name, lambda: FilterUDF(predicate, service_dist=service), parallelism
        )

    def flat_map(
        self,
        name: str,
        fn: Callable[[object], Sequence[object]],
        service: Optional[Distribution] = None,
        parallelism: ParallelismSpec = 1,
    ) -> "PipelineBuilder":
        """Add a 1-in/N-out stage."""
        return self.stage(
            name, lambda: FlatMapUDF(fn, service_dist=service), parallelism
        )

    def key_by(self, key_fn: Callable[[object], object]) -> "PipelineBuilder":
        """Wire the *next* stage with key partitioning on ``key_fn``."""
        self._pattern_for_next = "key"
        self._key_fn_for_next = key_fn
        return self

    def broadcast(self) -> "PipelineBuilder":
        """Wire the *next* stage with broadcast replication."""
        self._pattern_for_next = "broadcast"
        self._key_fn_for_next = None
        return self

    def sink(
        self,
        on_item: Optional[Callable[[object], None]] = None,
        name: str = "sink",
        parallelism: int = 1,
        service: Optional[Distribution] = None,
    ) -> "PipelineBuilder":
        """Terminate the pipeline."""
        if self._last is None:
            raise ValueError("add a source first")
        if self._sink is not None:
            raise ValueError("pipeline already ended with sink()")
        vertex = self.graph.add_vertex(
            name, lambda: SinkUDF(on_item, service_dist=service), parallelism=parallelism
        )
        self.graph.connect(self._last, vertex, pattern=self._pattern_for_next)
        self._pattern_for_next = "round_robin"
        self._sink = vertex
        self._last = vertex
        return self

    # ------------------------------------------------------------------
    # constraints and build
    # ------------------------------------------------------------------

    def constrain(
        self,
        bound: float,
        window: float = 10.0,
        name: Optional[str] = None,
    ) -> "PipelineBuilder":
        """Constrain the whole pipeline (source exit to sink entry).

        The constrained sequence covers every intermediate stage plus the
        channels out of the source and into the sink — the PrimeTester
        constraint shape (Sec. III-B).
        """
        if self._source is None or self._sink is None:
            raise ValueError("constrain() requires both source() and sink()")
        middle = [
            v.name
            for v in self.graph.topological_order()
            if v is not self._source and v is not self._sink
        ]
        if not middle:
            raise ValueError("constrain() needs at least one stage between source and sink")
        sequence = JobSequence.from_names(
            self.graph, middle, leading_edge=True, trailing_edge=True
        )
        self._constraints.append(LatencyConstraint(sequence, bound, window, name))
        return self

    def inject(self, *events: FaultSpec, seed: Optional[int] = None) -> "PipelineBuilder":
        """Add deterministic chaos faults to the pipeline.

        Accepts any :mod:`repro.simulation.faults` specs
        (:class:`~repro.simulation.faults.TaskCrash`,
        :class:`~repro.simulation.faults.WorkerLoss`,
        :class:`~repro.simulation.faults.MeasurementDropout`,
        :class:`~repro.simulation.faults.ServiceSpike`); ``seed`` drives
        victim selection. May be called repeatedly — events accumulate.

        >>> from repro.simulation.faults import TaskCrash
        >>> _ = (PipelineBuilder("p")  # doctest: +SKIP
        ...      .inject(TaskCrash(at=30.0, vertex="square"), seed=3))
        """
        self._fault_events.extend(events)
        if seed is not None:
            self._fault_seed = seed
        return self

    def observe(
        self,
        metrics: bool = True,
        trace: bool = True,
        export_dir: Optional[str] = None,
        sample_interval: float = 5.0,
        pin_wall_time: bool = False,
    ) -> "PipelineBuilder":
        """Opt the pipeline into observability (metrics/traces/exports).

        The resulting :class:`~repro.obs.config.ObservabilityConfig` is
        carried on the built pipeline and adopted by the engine at submit
        (unless the engine was constructed with its own config).
        ``pin_wall_time`` writes ``wall_time_s: 0.0`` into exported
        manifests so same-seed runs diff byte-for-byte.
        """
        self._observability = ObservabilityConfig(
            metrics=metrics,
            trace=trace,
            export_dir=export_dir,
            sample_interval=sample_interval,
            pin_wall_time=pin_wall_time,
        )
        return self

    def actuate(
        self,
        config: Optional[ActuationConfig] = None,
        **kwargs,
    ) -> "PipelineBuilder":
        """Opt the pipeline into supervised (failure-prone) actuation.

        Pass a prebuilt :class:`~repro.actuation.ActuationConfig`, or
        keyword arguments forwarded to its constructor:

        >>> _ = PipelineBuilder("p").actuate(timeout=5.0, max_retries=8)

        With supervision on, the scaler's decisions become asynchronous
        retried :class:`~repro.actuation.ActuationRequest` orders; see
        :mod:`repro.actuation`.
        """
        from repro.actuation.config import ActuationConfig

        if config is not None and kwargs:
            raise TypeError("pass either an ActuationConfig or keyword arguments, not both")
        self._actuation = config if config is not None else ActuationConfig(**kwargs)
        return self

    def stateful(
        self,
        vertex: Optional[str] = None,
        spec: Optional[StatefulVertexSpec] = None,
        **kwargs,
    ) -> "PipelineBuilder":
        """Declare a stage as stateful (key-partitioned operator state).

        ``vertex`` names the stage (default: the most recently added
        one). Pass a prebuilt
        :class:`~repro.engine.state.StatefulVertexSpec` or keyword
        arguments forwarded to its constructor (``n_keys``, ``zipf_s``,
        ``bytes_per_event``, ``cost``). Each processed event grows one of
        ``n_keys`` Zipf-drawn keys by ``bytes_per_event``:

        >>> _ = (PipelineBuilder("p")
        ...      .source(lambda now, rng: rng.random(), rate=None)
        ...      .map("agg", lambda x: x)
        ...      .stateful(n_keys=128, bytes_per_event=48))

        A stateful vertex's rescales route through the multi-phase state
        migration protocol (quiesce → snapshot → transfer → restore),
        its task crashes trigger checkpoint-restore recovery, and the
        elastic scaler gates its rescales on their migration pause. See
        :mod:`repro.engine.state`.
        """
        from repro.engine.state import StatefulVertexSpec

        if spec is not None and kwargs:
            raise TypeError(
                "pass either a StatefulVertexSpec or keyword arguments, not both"
            )
        if vertex is None:
            if self._last is None:
                raise ValueError("stateful() requires a stage (add one first)")
            vertex = self._last.name
        if vertex not in self.graph.vertices:
            raise ValueError(
                f"stateful() targets unknown vertex {vertex!r} "
                f"(have: {sorted(self.graph.vertices)})"
            )
        if self._source is not None and vertex == self._source.name:
            raise ValueError("sources cannot be stateful (no keyed input)")
        self._stateful[vertex] = spec if spec is not None else StatefulVertexSpec(**kwargs)
        return self

    def scale(self, policy: str = "scale-reactively", **knobs) -> "PipelineBuilder":
        """Select the pipeline's scaling policy (implies elasticity).

        ``policy`` is a registry name or full spec string — resolved
        through :mod:`repro.core.policy`, so the same names work here,
        on the ``--policy`` CLI flags and on sweep grids. Keyword
        arguments become policy knobs (overriding any knobs embedded in
        the spec string):

        >>> _ = PipelineBuilder("p").scale("drs", target_fraction=0.9)
        >>> _ = PipelineBuilder("p").scale("cpu-threshold:high=0.85")

        An unknown policy name or a bad knob (unknown, wrong type, out of
        range) raises ``ValueError`` here, before anything runs.
        """
        from repro.core.policy import PolicySpec, parse_policy_spec

        spec = parse_policy_spec(policy)
        merged = dict(spec.knobs)
        merged.update(knobs)
        self._policy = PolicySpec(spec.name, merged).validate()
        return self

    def share(self, weight: float = 1.0) -> "PipelineBuilder":
        """Set this job's weighted fair share of a shared cluster.

        The engine's admission controller (see
        :mod:`repro.engine.admission`) gives each job a share of
        ``total_slots * weight / sum(weights)`` slots; a scale-up of a
        job under its share may preempt jobs over theirs.

        >>> _ = PipelineBuilder("p").share(weight=2.0)
        """
        if weight <= 0:
            raise ValueError(f"weight must be > 0 (got {weight})")
        self._share = float(weight)
        return self

    def build(self) -> BuiltPipeline:
        """Validate and return the built pipeline."""
        if self._source is None:
            raise ValueError("pipeline has no source")
        if self._sink is None:
            raise ValueError("pipeline has no sink")
        self.graph.validate()
        plan = None
        if self._fault_events:
            known = set(self.graph.vertices)
            for spec in self._fault_events:
                vertex = getattr(spec, "vertex", None)
                if vertex is not None and vertex not in known:
                    raise ValueError(
                        f"fault {spec!r} targets unknown vertex {vertex!r} "
                        f"(have: {sorted(known)})"
                    )
            from repro.simulation.faults import FaultPlan

            plan = FaultPlan(
                tuple(self._fault_events), seed=self._fault_seed, name=self.graph.name
            )
        return BuiltPipeline(
            self.graph,
            list(self._constraints),
            fault_plan=plan,
            observability=self._observability,
            actuation=self._actuation,
            policy=self._policy,
            stateful=self._stateful,
            share=self._share,
        )
