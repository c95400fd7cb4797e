"""One benchmark run in a fresh interpreter; prints one JSON line.

Fresh because task and channel uids are process-global (a second run in
the same process would not repeat the first), because ``ru_maxrss`` is
a per-process high-water mark, and because ``setup_s`` starts at the
interpreter. The parent (``run.py``) passes its ``time.monotonic()`` at
spawn; CLOCK_MONOTONIC is system-wide, so the child can time its own
start-up against it.

Modes: ``setup`` stops before the run phase (a ``setup_s`` sample),
``run`` is the timed untraced run, ``profile`` is the same run with
``cProfile`` around ``engine.run`` / ``run_sweep``, ``micro`` runs the
micro rows.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

import layers  # noqa: E402
from calibration import calibrate  # noqa: E402
import workloads  # noqa: E402

#: run-phase step, one adjustment interval: live tasks and channels are
#: polled between steps so the counters of stopped ones are not lost
SEGMENT_VIRTUAL_S = 5.0
#: a step shorter than this reuses the previous calibration
CALIBRATION_EVERY_S = 0.05
#: sweep_mixed: pause between the side process's calibration readings
SAMPLER_INTERVAL_S = 0.05


class Counters:
    """Counter values read from public attributes, tolerant of removals."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.unavailable: Dict[str, str] = {}

    def read(self, name: str, getter: Callable[[], float]) -> None:
        try:
            self.values[name] = getter()
        except (AttributeError, KeyError, TypeError) as exc:
            self.values[name] = None
            self.unavailable[name] = f"{type(exc).__name__}: {exc}"


class LiveSet:
    """Every task and channel the job ever had, by polling the runtime."""

    def __init__(self, job) -> None:
        self.job = job
        self.tasks: Dict[int, object] = {}
        self.channels: Dict[int, object] = {}

    def poll(self) -> None:
        runtime = self.job.runtime
        for task in runtime.all_tasks():
            self.tasks[task.uid] = task
        for channels in runtime.edge_channels.values():
            for channel in channels:
                self.channels[channel.channel_id] = channel


def _peak_rss_mb(*who: int) -> float:
    return max(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _around(calibrations: List[float]) -> List[float]:
    """Per step: the mean of the calibrations before and after it."""
    return [(a + b) / 2.0 for a, b in zip(calibrations, calibrations[1:])]


def _percentile_rank(n: int, q: float) -> int:
    """Nearest-rank index of the q-quantile in a sorted list of n."""
    return max(0, math.ceil(q * n) - 1)


def _digest(sim: Dict, counters: Dict, blobs: Dict[str, bytes]) -> str:
    sha = hashlib.sha256()
    canonical = json.dumps({"sim": sim, "counters": counters}, sort_keys=True,
                           separators=(",", ":"))
    sha.update(canonical.encode())
    for name in sorted(blobs):
        sha.update(name.encode())
        sha.update(blobs[name])
    return sha.hexdigest()


def _profile_section(profiler: cProfile.Profile) -> Dict[str, object]:
    stats = pstats.Stats(profiler).stats
    return {"layers": layers.attribute(stats), "spans": layers.spans(stats)}


def _merge(result: Dict[str, object], extra: Dict[str, object]) -> Dict[str, bytes]:
    for key in ("sim", "counters", "checks"):
        result[key].update(extra.get(key, {}))
    ops = extra.get("ops")
    if ops:
        result["ops"]["attempted"] += ops["attempted"]
        result["ops"]["failed"] += ops["failed"]
    return extra.get("digest_blobs", {})


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------

def _run_in_process(workload, args, spawned_at: float) -> Dict[str, object]:
    duration = workload.duration(args.seconds)
    built = workload.build(args.seed, duration, args.workdir, True)
    setup_s = time.monotonic() - spawned_at
    result: Dict[str, object] = {"setup_s": setup_s, "setup_calibration_s": calibrate(3)}
    if args.mode == "setup":
        return result
    engine, job = built.engine, built.job
    live = LiveSet(job)
    live.poll()
    profiler = cProfile.Profile() if args.mode == "profile" else None
    segments: List[float] = []
    calibrations = [calibrate()]
    calibrated_at = time.perf_counter()
    remaining = duration
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    while remaining > 1e-9:
        step = min(SEGMENT_VIRTUAL_S, remaining)
        if profiler is not None:
            profiler.enable()
        started = time.perf_counter()
        engine.run(step)
        segments.append(time.perf_counter() - started)
        if profiler is not None:
            profiler.disable()
        live.poll()
        if time.perf_counter() - calibrated_at >= CALIBRATION_EVERY_S:
            calibrations.append(calibrate())
            calibrated_at = time.perf_counter()
        else:
            calibrations.append(calibrations[-1])
        remaining -= step
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start

    latencies = sorted(latency for _, latency in job.drain_sink_samples(built.sink))
    n = len(latencies)
    rank = _percentile_rank(n, 0.99) if n else 0
    observed = [t for t in job.trackers if t.intervals_observed]
    counters = _engine_counters(engine, job, live, n)
    sim: Dict[str, object] = {
        "fulfillment_min": min((t.fulfillment_ratio for t in observed), default=None),
        "task_seconds": engine.resources.task_seconds(),
        "latency_mean_ms": sum(latencies) / n * 1e3 if n else None,
        "latency_p99_ms": latencies[rank] * 1e3 if n else None,
        "latency_samples": n,
        "latency_samples_beyond_p99": n - 1 - rank if n else 0,
    }
    result.update({
        "run": {
            "wall_s": wall_s, "cpu_s": cpu_s, "virtual_s": engine.now,
            "cpu_per_wall": cpu_s / wall_s, "workers": 1,
            "segment_wall_s": segments,
            "segment_calibration_s": _around(calibrations),
        },
        "sim": sim,
        "counters": counters.values,
        "checks": {
            "ran_full_length": abs(engine.now - duration) < 1e-6,
            "delivered_enough_items": n >= workload.items_per_virtual_s * duration,
            "latencies_finite_and_positive": n > 0 and latencies[0] >= 0.0
            and math.isfinite(latencies[-1]),
            "every_constraint_observed": len(observed) == len(job.trackers) > 0,
        },
        "ops": {"attempted": 1, "failed": 0},
    })
    blobs = _merge(result, built.after_run(sim)) if built.after_run else {}
    result["unavailable"] = counters.unavailable
    result["sim_digest"] = _digest(sim, counters.values, blobs)
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    if profiler is not None:
        result["profile"] = _profile_section(profiler)
    return result


def _engine_counters(engine, job, live: LiveSet, delivered: int) -> Counters:
    tasks = list(live.tasks.values())
    channels = list(live.channels.values())
    c = Counters()
    c.read("simulation.kernel.fired_events", lambda: engine.sim.fired_events)
    c.read("simulation.kernel.max_heap", lambda: engine.sim.max_heap_size)
    c.read("simulation.kernel.events_per_item",
           lambda: engine.sim.fired_events / delivered if delivered else 0.0)
    c.read("engine.task.items_processed", lambda: sum(t.items_processed for t in tasks))
    c.read("engine.task.busy_sim_s", lambda: sum(t.busy_time for t in tasks))
    c.read("engine.task.flushes",
           lambda: sum(g.flushes for t in tasks for g in t.out_gates))
    c.read("engine.queues.enqueued", lambda: sum(t.input_queue.total_enqueued for t in tasks))
    c.read("engine.channel.items_delivered", lambda: sum(ch.items_delivered for ch in channels))
    c.read("engine.channel.batches_shipped", lambda: sum(ch.batches_shipped for ch in channels))
    c.read("engine.channel.items_per_batch",
           lambda: sum(ch.items_delivered for ch in channels)
           / max(1, sum(ch.batches_shipped for ch in channels)))
    # accepted by a channel that was closed before delivering them
    c.read("engine.channel.items_lost",
           lambda: sum(ch.items_emitted - ch.items_delivered for ch in channels if ch.closed))
    c.read("engine.scheduler.admission_denials", lambda: engine.resources.admission_denials)
    c.read("engine.scheduler.preempted_tasks", lambda: engine.resources.preempted_tasks)
    state = job.state_manager
    for name, attribute in (
        ("migrations_completed", "migrations_completed"),
        ("migrations_rolled_back", "migrations_rolled_back"),
        ("migrated_bytes", "state_migrated_bytes"),
        ("checkpoints", "checkpoints"),
        ("migration_pause_sim_s", "migration_pause_s"),
        ("crash_recoveries", "crash_recoveries"),
    ):
        c.read(f"engine.state.{name}",
               lambda a=attribute: getattr(state, a) if state is not None else 0)
    scaler = job.scaler
    c.read("core.rounds", lambda: scaler.rounds if scaler is not None else 0)
    c.read("core.activations", lambda: len(scaler.events) if scaler is not None else 0)
    c.read("core.skipped_stale", lambda: scaler.skipped_stale if scaler is not None else 0)
    reconciler = job.reconciler
    for name in ("requests", "retries", "give_ups"):
        c.read(f"actuation.{name}",
               lambda n=name: getattr(reconciler, n) if reconciler is not None else 0)
    return c


# ----------------------------------------------------------------------
# sweep_mixed
# ----------------------------------------------------------------------

def _run_sweep(args, spawned_at: float) -> Dict[str, object]:
    grids = workloads.build_sweep_grids(args.seed, args.seconds)
    result: Dict[str, object] = {"setup_s": time.monotonic() - spawned_at,
                                 "setup_calibration_s": calibrate(3)}
    if args.mode == "setup":
        return result
    profiler = cProfile.Profile() if args.mode == "profile" else None
    if profiler is not None:
        # the pool forks: without this every shard would inherit the
        # enabled profiler and pay for a profile nobody reads
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    cpu_start = time.process_time() + _cpu_children()
    wall_start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    segments: List[float] = []
    grid_ends = [time.monotonic()]
    sampler = subprocess.Popen(
        [sys.executable, os.path.join(_HERE, "calibration.py"), repr(SAMPLER_INTERVAL_S)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        results = workloads.run_sweep_grids(
            grids, args.workdir, segments, lambda: grid_ends.append(time.monotonic())
        )
    finally:
        sampler.terminate()
        readings = [tuple(map(float, line.split()))
                    for line in sampler.communicate()[0].splitlines()]
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() + _cpu_children() - cpu_start
    collected = workloads.collect_sweep(results, args.workdir)
    workers = workloads.SWEEP_WORKERS
    result.update({
        "run": {
            "wall_s": wall_s, "cpu_s": cpu_s, "virtual_s": collected["virtual_s"],
            "cpu_per_wall": cpu_s / wall_s, "workers": workers, "segment_wall_s": segments,
            "segment_calibration_s": [
                statistics.median([c for t, c in readings if start <= t <= end] or [calibrate(3)])
                for start, end in zip(grid_ends, grid_ends[1:])
            ],
        },
        "sim": collected["sim"],
        "counters": collected["counters"],
        "checks": collected["checks"],
        "ops": collected["ops"],
        "unavailable": {},
    })
    result["sim_digest"] = _digest(
        collected["sim"], collected["counters"], collected["digest_blobs"]
    )
    result["peak_rss_mb"] = _peak_rss_mb(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    if profiler is not None:
        result["profile"] = _profile_section(profiler)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "profile", "micro"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    os.makedirs(args.workdir, exist_ok=True)
    if args.mode == "micro":
        import micro

        result = micro.run_all(args.workdir)
    elif args.workload == "sweep_mixed":
        result = _run_sweep(args, spawned_at)
    else:
        result = _run_in_process(workloads.WORKLOADS[args.workload], args, spawned_at)
    result.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "mode": args.mode})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
