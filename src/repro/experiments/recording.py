"""Time-series recording for experiments.

A :class:`SeriesRecorder` samples the running engine once per recording
interval: attempted vs. effective source throughput, per-vertex
parallelism, mean / 95th-percentile latency per sample feed (e.g. a sink
vertex's end-to-end samples), cumulative task-seconds and mean task CPU
utilization — the quantities plotted in the paper's Figs. 3, 6 and 8.

:func:`deploy` is the one way the layers above the engine — scenario
builds, figure harnesses, the macro benchmark — get a running cluster:
it constructs the engine, attaches what the run records and submits the
pipelines, in that order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.builder import BuiltPipeline
from repro.engine.engine import DeployedJob, EngineConfig, StreamProcessingEngine
from repro.engine.items import SampleView, SinkSamples
from repro.obs.sampling import utilization_samples
from repro.qos.stats import percentile
from repro.workloads.rates import RateProfile


class SeriesRow:
    """One recording interval's snapshot."""

    __slots__ = (
        "time",
        "attempted_rate",
        "effective_rate",
        "parallelism",
        "latency_mean",
        "latency_p95",
        "task_seconds",
        "cpu_utilization",
        "constraint_latency",
        "faults",
    )

    def __init__(self, time: float) -> None:
        self.time = time
        #: aggregate attempted source rate (items/s)
        self.attempted_rate = 0.0
        #: aggregate effective source rate (items/s)
        self.effective_rate = 0.0
        #: vertex name -> effective parallelism
        self.parallelism: Dict[str, int] = {}
        #: feed name -> mean latency over the interval (seconds, or None)
        self.latency_mean: Dict[str, Optional[float]] = {}
        #: feed name -> p95 latency over the interval (seconds, or None)
        self.latency_p95: Dict[str, Optional[float]] = {}
        #: cumulative task-seconds at the end of the interval
        self.task_seconds = 0.0
        #: mean CPU utilization over the live tasks (0..1)
        self.cpu_utilization = 0.0
        #: constraint name -> summary-measured sequence latency (or None)
        self.constraint_latency: Dict[str, Optional[float]] = {}
        #: faults injected/recovered during the interval, as
        #: (time, kind, target, detail) tuples
        self.faults: List[Tuple[float, str, str, str]] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SeriesRow(t={self.time:.0f}, p={self.parallelism})"


class SeriesRecorder:
    """Samples engine state once per recording interval.

    May be created before or after :meth:`StreamProcessingEngine.submit`
    (ticks are skipped until a job is deployed) — creating it before
    submit allows combining probe feeds with
    :meth:`StreamProcessingEngine.add_vertex_probe`. It records the
    engine's only job; on an engine hosting several, assign ``job``.
    """

    def __init__(
        self,
        engine: StreamProcessingEngine,
        interval: float = 5.0,
        source_vertex: Optional[str] = None,
        source_profile: Optional[RateProfile] = None,
    ) -> None:
        self.engine = engine
        #: the recorded job (None = the engine's only job, once submitted)
        self.job: Optional[DeployedJob] = None
        self.interval = interval
        self.source_vertex = source_vertex
        self.source_profile = source_profile
        self.rows: List[SeriesRow] = []
        self._feeds: Dict[str, Callable[[], SampleView]] = {}
        self._last_busy: Dict[int, float] = {}
        self._last_emitted = 0
        self._fault_cursor = 0
        # Share the engine's per-interval sampling clock (one timer per
        # interval, same sampling instants as the metrics layer). The
        # clock's default first tick equals the old standalone schedule
        # (interval + epsilon), so recordings are unchanged.
        self._clock = engine.sampling_clock(interval)
        self._clock.subscribe(self._tick)

    # ------------------------------------------------------------------
    # feeds
    # ------------------------------------------------------------------

    def add_sink_feed(self, name: str, sink_vertex: str) -> None:
        """Record e2e latency stats of a sink vertex's samples."""
        self._feeds[name] = lambda: self.job.drain_sink_samples(sink_vertex)

    def add_probe_feed(
        self, name: str, payload_type: Optional[type] = None
    ) -> Callable[[float, object], None]:
        """Create a custom feed; returns the probe to install on a vertex.

        Pass the returned callable to
        :meth:`StreamProcessingEngine.add_vertex_probe` (before submit) or
        call it manually with ``(latency_seconds, payload)``. With a
        ``payload_type`` the feed keeps only items carrying that payload
        (a vertex fed by two streams, recorded for one of them).
        """
        samples = SinkSamples(self.engine.sim)
        self._feeds[name] = samples.drain
        if payload_type is None:
            return samples.record
        record = samples.record

        def probe(latency: float, payload: object) -> None:
            if isinstance(payload, payload_type):
                record(latency, payload)

        return probe

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def _tick(self, now: Optional[float] = None) -> None:
        engine = self.engine
        if self.job is None:
            if not engine.jobs:
                return
            self.job = engine._primary()
        job = self.job
        runtime = job.runtime
        row = SeriesRow(engine.sim.now)
        for name, rv in runtime.vertices.items():
            row.parallelism[name] = rv.parallelism
        # throughput
        if self.source_vertex is not None:
            sources = runtime.vertex(self.source_vertex).tasks
            if self.source_profile is not None:
                row.attempted_rate = self.source_profile.rate(engine.sim.now) * max(
                    1, len(sources)
                )
            emitted = sum(t.items_processed for t in sources)
            row.effective_rate = (emitted - self._last_emitted) / self.interval
            self._last_emitted = emitted
        # latency feeds
        for name, drain in self._feeds.items():
            samples = drain().latencies()
            if samples:
                row.latency_mean[name] = sum(samples) / len(samples)
                row.latency_p95[name] = percentile(samples, 95.0)
            else:
                row.latency_mean[name] = None
                row.latency_p95[name] = None
        # constraint view (summary-based, as the trackers see it)
        if job.last_summary is not None:
            for constraint in job.constraints:
                row.constraint_latency[constraint.name] = constraint.measured_latency(
                    job.last_summary
                )
        # faults injected since the previous tick
        injector = job.fault_injector
        if injector is not None:
            fresh = injector.log[self._fault_cursor:]
            self._fault_cursor += len(fresh)
            row.faults = [record.as_tuple() for record in fresh]
        # resources and utilization
        row.task_seconds = engine.resources.task_seconds()
        utilizations = utilization_samples(
            runtime.all_tasks(), self._last_busy, self.interval
        )
        row.cpu_utilization = sum(utilizations) / len(utilizations) if utilizations else 0.0
        self.rows.append(row)

    # ------------------------------------------------------------------
    # aggregation helpers
    # ------------------------------------------------------------------

    def mean_cpu_utilization(self) -> float:
        """Mean of the per-interval mean utilizations (paper: 55.7 %)."""
        if not self.rows:
            return 0.0
        return sum(r.cpu_utilization for r in self.rows) / len(self.rows)

    def peak_effective_rate(self) -> float:
        """Maximum effective source throughput over the run."""
        return max((r.effective_rate for r in self.rows), default=0.0)

    def parallelism_series(self, vertex: str) -> List[Tuple[float, int]]:
        """(time, parallelism) for one vertex."""
        return [(r.time, r.parallelism.get(vertex, 0)) for r in self.rows]

    def fault_series(self) -> List[Tuple[float, str, str, str]]:
        """All recorded fault events, flattened across rows."""
        return [record for r in self.rows for record in r.faults]

    def summary(self) -> Dict[str, object]:
        """JSON-serializable run digest (deterministic; no wall clock).

        The per-shard quantity a sweep checkpoints and merges: interval
        count, mean CPU utilization, peak effective rate, final
        cumulative task-seconds, per-feed overall mean / worst-p95
        latency and the number of fault events observed.
        """
        feeds: Dict[str, Dict[str, Optional[float]]] = {}
        for feed in sorted({name for r in self.rows for name in r.latency_mean}):
            means = [r.latency_mean[feed] for r in self.rows
                     if r.latency_mean.get(feed) is not None]
            p95s = [r.latency_p95[feed] for r in self.rows
                    if r.latency_p95.get(feed) is not None]
            feeds[feed] = {
                "mean_latency": sum(means) / len(means) if means else None,
                "max_p95_latency": max(p95s) if p95s else None,
            }
        return {
            "intervals": len(self.rows),
            "mean_cpu_utilization": self.mean_cpu_utilization(),
            "peak_effective_rate": self.peak_effective_rate(),
            "task_seconds": self.rows[-1].task_seconds if self.rows else 0.0,
            "feeds": feeds,
            "fault_events": len(self.fault_series()),
        }


class Recording(NamedTuple):
    """What :func:`deploy` records of a run (of its only pipeline)."""

    interval: float
    #: the vertex whose attempted / effective throughput is sampled
    source: str
    #: feed name -> sink vertex whose end-to-end samples it drains
    sinks: Dict[str, str]
    #: feed name -> (vertex, payload type): a per-item probe on a vertex
    #: that is not a sink, kept for the items carrying that payload
    probes: Dict[str, Tuple[str, type]] = {}


def deploy(
    config: EngineConfig,
    pipelines: Sequence[BuiltPipeline],
    recording: Optional[Recording] = None,
) -> Tuple[StreamProcessingEngine, List[DeployedJob], Optional[SeriesRecorder]]:
    """A cluster with ``pipelines`` submitted (not run): ``(engine, jobs, recorder)``.

    The order is fixed — engine, recorder with its feeds and probes,
    submit — so probes reach every task from the first one on.
    ``recorder`` is None without a ``recording``.
    """
    engine = StreamProcessingEngine(config)
    recorder = None
    if recording is not None:
        (pipeline,) = pipelines
        recorder = SeriesRecorder(
            engine, recording.interval, recording.source,
            pipeline.graph.vertex(recording.source).rate_profile,
        )
        for name, sink in recording.sinks.items():
            recorder.add_sink_feed(name, sink)
        for name, (vertex, payload_type) in recording.probes.items():
            engine.add_vertex_probe(vertex, recorder.add_probe_feed(name, payload_type))
    jobs = [engine.submit(pipeline) for pipeline in pipelines]
    return engine, jobs, recorder
