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
        start_delay: Optional[float] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive (got {interval})")
        self.sim = sim
        self.interval = interval
        self._subscribers: List[Callable[[float], None]] = []
        first = interval + SAMPLE_EPSILON if start_delay is None else start_delay
        sim.every(interval, self._tick, start_delay=first)

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


class MetricsSampler:
    """Samples engine-wide gauges into a registry once per clock tick.

    Covers the instrumentation points that are cheaper to *sample* than
    to count on the hot path: cluster resource usage, per-task CPU
    utilization and QoS-manager staleness — what the simulated SPE did,
    not how the simulator computed it (the kernel's own event and heap
    counters stay on :class:`~repro.simulation.kernel.Simulator`). Each
    tick also appends one JSONL-able snapshot row (``{"time": ...,
    "metrics": {...}}``) for ``metrics.jsonl`` export.
    """

    def __init__(self, engine, registry: MetricsRegistry, clock: SamplingClock) -> None:
        self.engine = engine
        self.registry = registry
        self.clock = clock
        #: one ``{"time", "metrics"}`` row per tick, for metrics.jsonl
        self.snapshots: List[Dict[str, object]] = []
        self._last_busy: Dict[int, float] = {}
        clock.subscribe(self.sample)

    def sample(self, now: float) -> None:
        """Take one sample (normally driven by the clock)."""
        engine = self.engine
        registry = self.registry
        # -- cluster resources ------------------------------------------
        resources = engine.resources
        registry.gauge("cluster.active_tasks").set(resources.active_tasks)
        registry.gauge("cluster.leased_workers").set(resources.leased_workers)
        registry.gauge("cluster.task_seconds").set(resources.task_seconds())
        # -- per-task utilization (shared busy-delta logic) -------------
        tasks = [t for job in engine.jobs for t in job.runtime.all_tasks()]
        samples = utilization_samples(tasks, self._last_busy, self.clock.interval)
        mean = sum(samples) / len(samples) if samples else 0.0
        registry.gauge("tasks.cpu_utilization").set(mean)
        # -- QoS measurement health -------------------------------------
        dropped = sum(m.dropped_collects for job in engine.jobs for m in job._managers)
        registry.gauge("qos.dropped_collects").set(dropped)
        staleness = max(
            (m.staleness(now) for job in engine.jobs for m in job._managers),
            default=0.0,
        )
        registry.gauge("qos.max_staleness").set(staleness)
        self.snapshots.append({"time": now, "metrics": registry.snapshot()})

    def write_jsonl(self, path: str) -> str:
        """Write all snapshot rows as JSONL; returns the path."""
        import json
        import os

        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for row in self.snapshots:
                f.write(json.dumps(row, allow_nan=False) + "\n")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsSampler({len(self.snapshots)} snapshots)"
