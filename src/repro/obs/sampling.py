"""A shared per-interval sampling clock and the engine metrics sampler.

Before this module existed, every observer (the experiments'
:class:`~repro.experiments.recording.SeriesRecorder`, ad-hoc probes)
scheduled its own periodic process on the simulator. A
:class:`SamplingClock` owns exactly one periodic process per interval
and fans each tick out to its subscribers in subscription order, so the
metrics layer and the series recorder sample the *same* instants and the
event heap carries one timer instead of N.

Subscribers must be read-only with respect to simulation state (they
run on the shared event heap); all built-in subscribers only read
counters and gauges, which is what keeps observability-enabled runs
behaviorally identical to disabled ones.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - avoids package import cycles
    from repro.simulation.kernel import Simulator

#: epsilon offset used since the first SeriesRecorder: samples strictly
#: follow the measurement/adjustment ticks sharing the same instant
SAMPLE_EPSILON = 2e-6


class SamplingClock:
    """One periodic process fanning ticks out to subscribers."""

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive (got {interval})")
        self.sim = sim
        self.interval = interval
        self._subscribers: List[Callable[[float], None]] = []
        sim.every(interval, self._tick, start_delay=interval + SAMPLE_EPSILON)

    def subscribe(self, callback: Callable[[float], None]) -> None:
        """Call ``callback(now)`` on every tick (in subscription order)."""
        self._subscribers.append(callback)

    def _tick(self) -> None:
        now = self.sim.now
        for callback in list(self._subscribers):
            callback(now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SamplingClock(interval={self.interval}, "
            f"subscribers={len(self._subscribers)})"
        )


def utilization_samples(
    tasks,
    last_busy: Dict[int, float],
    interval: float,
) -> List[float]:
    """Per-task CPU utilization over the last interval (busy-time deltas).

    Shared by the series recorder and the metrics sampler: diffs each
    task's lifetime ``busy_time`` against ``last_busy`` (mutated in
    place; dead task entries are evicted) and clamps to [0, 1]. A task
    seen for the first time contributes 0 for this interval.
    """
    samples: List[float] = []
    seen = set()
    for task in tasks:
        seen.add(task.uid)
        last = last_busy.get(task.uid, task.busy_time)
        delta = task.busy_time - last
        last_busy[task.uid] = task.busy_time
        samples.append(min(1.0, max(0.0, delta / interval)))
    for uid in [uid for uid in last_busy if uid not in seen]:
        del last_busy[uid]
    return samples


COUNTER, GAUGE = "counter", "gauge"

#: Every scalar ``metrics.jsonl`` carries, in row order: ``(name, owner,
#: reader, kind)``. Each fact is counted once, by the component that owns
#: it, and the sampler only reads: ``owner`` is ``"sampler"`` (the derived
#: gauges), ``"resources"`` (the cluster) or a per-job component summed
#: over ``engine.jobs`` (``managers`` are the job's QoS managers).
#: ``reader`` is an attribute name or a function of the component; a
#: ``COUNTER`` never decreases (``repro trace --check`` holds rows to it).
METRICS = (
    ("scheduler.deploys", "scheduler", "deploys", COUNTER),
    ("scheduler.tasks_started", "scheduler", "tasks_started", COUNTER),
    ("scheduler.admission_denials", "scheduler", "admission_denials", COUNTER),
    ("scheduler.scale_up_aborts", "scheduler", "scale_up_aborts", COUNTER),
    ("scheduler.scale_ups", "scheduler", "scale_ups", COUNTER),
    ("scheduler.scale_downs", "scheduler", "scale_downs", COUNTER),
    ("scheduler.preemptions", "scheduler", "preemptions", COUNTER),
    ("scheduler.task_failures", "scheduler", "task_failures", COUNTER),
    ("scheduler.task_restarts", "scheduler", "task_restarts", COUNTER),
    ("scheduler.restart_denials", "scheduler", "restart_denials", COUNTER),
    ("qos.collects", "managers", "collects", COUNTER),
    ("qos.partial_summaries", "managers", "partial_summaries", COUNTER),
    ("qos.dropped_collects", "managers", "dropped_collects", COUNTER),
    ("qos.max_staleness", "sampler", "max_staleness", GAUGE),
    ("cluster.active_tasks", "resources", "active_tasks", GAUGE),
    ("cluster.leased_workers", "resources", "leased_workers", GAUGE),
    ("cluster.task_seconds", "resources", lambda r: r.task_seconds(), COUNTER),
    ("tasks.cpu_utilization", "sampler", "cpu_utilization", GAUGE),
    ("actuation.requests", "reconciler", "requests", COUNTER),
    ("actuation.superseded", "reconciler", "superseded_requests", COUNTER),
    ("actuation.applied", "reconciler", "applied", COUNTER),
    ("actuation.partials", "reconciler", "partials", COUNTER),
    ("actuation.failures", "reconciler", "failures", COUNTER),
    ("actuation.retries", "reconciler", "retries", COUNTER),
    ("actuation.give_ups", "reconciler", "give_ups", COUNTER),
    ("actuation.admission_denials", "reconciler", "admission_denials", COUNTER),
    ("actuation.escalations", "reconciler", "escalations", COUNTER),
    ("actuation.in_flight", "reconciler", lambda r: len(r.in_flight), GAUGE),
    ("actuation.convergence_lag", "reconciler", lambda r: r.convergence_lag(), GAUGE),
    ("state.checkpoints", "state_manager", "checkpoints", COUNTER),
    ("state.crash_recoveries", "state_manager", "crash_recoveries", COUNTER),
    ("state.lost_bytes", "state_manager", "state_lost_bytes", COUNTER),
    ("state.migrations_started", "state_manager", "migrations_started", COUNTER),
    ("state.migrations_completed", "state_manager", "migrations_completed", COUNTER),
    ("state.migrations_rolled_back", "state_manager", "migrations_rolled_back", COUNTER),
    ("state.migrations_deferred", "state_manager", "migrations_deferred", COUNTER),
    ("state.migrated_bytes", "state_manager", "state_migrated_bytes", COUNTER),
)

#: per-job owners a job may lack; their names appear only when some job has one
_OPTIONAL_OWNERS = ("reconciler", "state_manager")


class MetricsSampler:
    """Reads :data:`METRICS` into one ``metrics.jsonl`` row per clock tick.

    Besides the components' counters it samples what is cheaper to
    sample than to count on the hot path (per-task CPU utilization,
    QoS-manager staleness); the registry's ``service_time.<vertex>``
    histograms close each ``{"time": ..., "metrics": {...}}`` row. The
    kernel's own event and heap counters are not metrics.
    """

    def __init__(self, engine, registry: MetricsRegistry, clock: SamplingClock) -> None:
        self.engine = engine
        self.registry = registry
        self.clock = clock
        #: one ``{"time", "metrics"}`` row per tick, for metrics.jsonl
        self.snapshots: List[Dict[str, object]] = []
        self._last_busy: Dict[int, float] = {}
        #: derived gauges of the current tick
        self.cpu_utilization = 0.0
        self.max_staleness = 0.0
        clock.subscribe(self.sample)

    def sample(self, now: float) -> None:
        """Take one sample (normally driven by the clock)."""
        jobs = self.engine.jobs
        tasks = [t for job in jobs for t in job.runtime.all_tasks()]
        samples = utilization_samples(tasks, self._last_busy, self.clock.interval)
        self.cpu_utilization = sum(samples) / len(samples) if samples else 0.0
        managers = [m for job in jobs for m in job._managers]
        self.max_staleness = max((m.staleness(now) for m in managers), default=0.0)
        owners = {"sampler": [self], "resources": [self.engine.resources], "managers": managers}
        for owner in ("scheduler",) + _OPTIONAL_OWNERS:
            owners[owner] = [getattr(j, owner) for j in jobs if getattr(j, owner) is not None]
        row: Dict[str, object] = {
            name: sum(getattr(c, reader) if isinstance(reader, str) else reader(c)
                      for c in owners[owner])
            for name, owner, reader, _kind in METRICS
            if owners[owner] or owner not in _OPTIONAL_OWNERS
        }
        row.update(self.registry.snapshot())
        self.snapshots.append({"time": now, "metrics": row})

    def write_jsonl(self, path: str) -> str:
        """Write all snapshot rows as JSONL; returns the path."""
        import os

        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for row in self.snapshots:
                f.write(json.dumps(row, allow_nan=False) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsSampler({len(self.snapshots)} snapshots)"


def validate_metrics_file(path: str) -> List[str]:
    """Errors of a ``metrics.jsonl`` file (empty list = valid).

    Every row is ``{"time", "metrics"}`` and its time exceeds the
    previous row's; every scalar is a finite number; every name of the
    first row is in every row; no :data:`METRICS` counter decreases.
    """
    from repro.obs.trace import _is_finite

    counters = {name for name, _owner, _reader, kind in METRICS if kind == COUNTER}
    errors: List[str] = []
    first: Optional[Dict[str, object]] = None
    last: Dict[str, object] = {"time": None, "metrics": {}}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = list(f)
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    for number, line in enumerate(lines, start=1):
        try:
            row = json.loads(line)
        except ValueError as exc:
            errors.append(f"line {number}: not valid JSON ({exc})")
            continue
        if not isinstance(row, dict) or not isinstance(row.get("metrics"), dict):
            errors.append(f'line {number}: not a {{"time", "metrics"}} row')
            continue
        time, metrics = row.get("time"), row["metrics"]
        if not _is_finite(time) or (_is_finite(last["time"]) and time <= last["time"]):
            errors.append(f"line {number}: time {time!r} does not follow {last['time']!r}")
        for name, value in metrics.items():
            before = last["metrics"].get(name)
            if isinstance(value, dict):
                continue  # a service_time histogram
            if not _is_finite(value):
                errors.append(f"line {number}: {name} = {value!r} is not a finite number")
            elif name in counters and _is_finite(before) and value < before:
                errors.append(f"line {number}: counter {name} decreased ({before} -> {value})")
        if first is None:
            first = metrics
        missing = [name for name in first if name not in metrics]
        if missing:
            errors.append(f"line {number}: missing {', '.join(missing)}")
        last = {"time": time, "metrics": metrics}
    return errors
