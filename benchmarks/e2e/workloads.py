"""The six benchmark workloads.

Every workload is open-loop in *simulated* time (sources emit on their
own schedule whatever the engine does) and a fixed-size batch job on the
host: ``--seconds`` sets the simulated length through
``virtual_per_second``, sized so the run phase takes roughly that many
wall seconds on the 2-core reference box. The same ``(seed, seconds)``
therefore always gives the same inputs and the same sim statistics.

Only top-level ``repro`` exports, ``repro.sweep`` and the
:class:`DeployedJob` handle returned by ``submit`` are used (the one
exception, ``MigrationFailure``, has no top-level export yet), so the
harness survives the pass-through-property and ``submit_to`` deletions
on the ROADMAP. ``repro`` is imported inside the build functions: the
import is part of ``setup_s``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional


class Built:
    """A deployed, not-yet-run in-process workload."""

    def __init__(self, engine, job, sink: str, after_run: Optional[Callable] = None) -> None:
        self.engine = engine
        self.job = job
        self.sink = sink
        #: post-run step: takes the sim dict, returns extra
        #: {sim, counters, checks, ops, digest_blobs}
        self.after_run = after_run


class Workload:
    def __init__(
        self,
        name: str,
        why: str,
        virtual_per_second: float,
        min_virtual: float,
        items_per_virtual_s: float,
        build: Optional[Callable] = None,
    ) -> None:
        self.name = name
        self.why = why
        #: simulated seconds per requested wall second (--seconds)
        self.virtual_per_second = virtual_per_second
        #: floor for smoke runs: >= 2 adjustment intervals, and a whole
        #: rate period where the source's rate varies
        self.min_virtual = min_virtual
        #: sink deliveries per simulated second the run must reach: the
        #: nominal rate less start-up, crash losses and Poisson spread
        self.items_per_virtual_s = items_per_virtual_s
        self.build = build

    def duration(self, seconds: float) -> float:
        return max(self.min_virtual, self.virtual_per_second * seconds)


# ----------------------------------------------------------------------
# twitter_elastic
# ----------------------------------------------------------------------

def _build_twitter(seed: int, duration: float, workdir: str, obs: bool) -> Built:
    from repro import (
        EngineConfig,
        StreamProcessingEngine,
        TwitterSentimentParams,
        build_twitter_sentiment_job,
    )

    # Fig8Params().quick() without its 3x rate burst: across seeds that
    # burst backs the Sentiment queue up for seconds on some seeds and
    # not on others (mean latency 36..570 ms, p99 0.36..5.1 s over seeds
    # 1-10 and 23), which no relative bound can gate. The single-topic
    # content burst -- the paper's Sentiment scale-up trigger -- stays.
    params = TwitterSentimentParams(
        period=120.0,
        bursts=(),
        topic_bursts=((150.0, 175.0, 0, 0.8),),
    )
    graph, constraints = build_twitter_sentiment_job(params)
    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True, seed=seed))
    job = engine.submit(graph, constraints)
    return Built(engine, job, "Sink")


# ----------------------------------------------------------------------
# station_saturated (also the theory oracle)
# ----------------------------------------------------------------------

#: experiments/validation.py's stages with service means / 10
STATION_STAGES = (("A", 0.0004, 1.0, 2), ("B", 0.0002, 0.7, 1))
STATION_UTILIZATION = 0.8


def _station_rate() -> float:
    return STATION_UTILIZATION / max(mean / p for _, mean, _, p in STATION_STAGES)


def _build_station(seed: int, duration: float, workdir: str, obs: bool) -> Built:
    from repro import (
        ConstantRate,
        EngineConfig,
        Gamma,
        JobGraph,
        JobSequence,
        LatencyConstraint,
        MapUDF,
        PipelineStage,
        SinkUDF,
        SourceUDF,
        StreamProcessingEngine,
        predict_pipeline_latency,
    )

    rate = _station_rate()
    graph = JobGraph("station")
    previous = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: rng.random()))
    previous.rate_profile = ConstantRate(rate)
    for name, mean, cv, parallelism in STATION_STAGES:
        vertex = graph.add_vertex(
            name,
            lambda mean=mean, cv=cv: MapUDF(lambda x: x, service_dist=Gamma(mean, cv)),
            parallelism=parallelism,
        )
        graph.connect(previous, vertex)
        previous = vertex
    graph.connect(previous, graph.add_vertex("Snk", lambda: SinkUDF()))
    stages = [PipelineStage(n, mean, cv, p) for n, mean, cv, p in STATION_STAGES]
    predicted = predict_pipeline_latency(stages, rate, hop_latency=0.0)
    # tracked only (the job is not elastic): twice the predicted mean
    constraint = LatencyConstraint(
        JobSequence.from_names(
            graph, [s[0] for s in STATION_STAGES], leading_edge=True, trailing_edge=True
        ),
        bound=2.0 * predicted,
        name="station-e2e",
    )
    engine = StreamProcessingEngine(EngineConfig(
        base_latency=0.0, per_batch_overhead=0.0, per_item_overhead=0.0,
        queue_capacity=100_000, channel_capacity=100_000, seed=seed,
    ))
    job = engine.submit(graph, [constraint])

    def after_run(sim: Dict[str, object]) -> Dict[str, object]:
        error = abs(sim["latency_mean_ms"] / 1e3 - predicted) / predicted * 100.0
        return {
            "sim": {"theory_error_pct": error, "theory_predicted_ms": predicted * 1e3},
            # today's gap is ~17 % at rho = 0.8; twice that means the
            # engine stopped simulating the queueing model at all
            "checks": {"theory_error_below_35pct": error < 35.0},
        }

    return Built(engine, job, "Snk", after_run)


# ----------------------------------------------------------------------
# shuffle_batched
# ----------------------------------------------------------------------

SHUFFLE_KEYS = 64


def _build_shuffle(seed: int, duration: float, workdir: str, obs: bool) -> Built:
    from repro import ConstantRate, EngineConfig, Gamma, PipelineBuilder, StreamProcessingEngine

    keys_seen = set()
    mismatched = [0]

    def on_item(payload) -> None:
        key, value = payload
        keys_seen.add(key)
        if value % SHUFFLE_KEYS != key:
            mismatched[0] += 1

    pipeline = (
        PipelineBuilder("shuffle")
        .source(lambda now, rng: rng.randrange(1 << 30), rate=ConstantRate(4000.0))
        .map("pre", lambda x: (x % SHUFFLE_KEYS, x), service=Gamma(0.001, 0.7), parallelism=8)
        .key_by(lambda kv: kv[0])
        .map("agg", lambda kv: kv, service=Gamma(0.001, 0.7), parallelism=8)
        .sink(on_item)
        .constrain(bound=0.5, name="shuffle-e2e")
        .build()
    )
    engine = StreamProcessingEngine(EngineConfig.nephele_fixed_buffer(seed=seed))
    job = engine.submit(pipeline)

    def after_run(sim: Dict[str, object]) -> Dict[str, object]:
        return {"checks": {
            "all_keys_seen": len(keys_seen) == SHUFFLE_KEYS,
            "payloads_keep_their_key": mismatched[0] == 0,
        }}

    return Built(engine, job, "sink", after_run)


# ----------------------------------------------------------------------
# control_wide
# ----------------------------------------------------------------------

CONTROL_STAGES = 64
CONTROL_RATE = 2.0


def _build_control(seed: int, duration: float, workdir: str, obs: bool) -> Built:
    from repro import ConstantRate, EngineConfig, Gamma, PipelineBuilder, StreamProcessingEngine

    builder = PipelineBuilder("control").source(
        lambda now, rng: rng.random(), rate=ConstantRate(CONTROL_RATE)
    )
    for index in range(CONTROL_STAGES):
        builder.map(
            f"m{index:02d}", lambda x: x, service=Gamma(0.002, 0.7), parallelism=(4, 2, 16)
        )
    pipeline = builder.sink().constrain(bound=1.0, name="control-e2e").build()
    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True, seed=seed))
    return Built(engine, engine.submit(pipeline), "sink")


# ----------------------------------------------------------------------
# stateful_chaos
# ----------------------------------------------------------------------

def _build_chaos(seed: int, duration: float, workdir: str, obs: bool) -> Built:
    from repro import (
        ConstantRate,
        EngineConfig,
        Gamma,
        PipelineBuilder,
        ServiceSpike,
        StreamProcessingEngine,
        TaskCrash,
    )
    from repro.simulation.faults import MigrationFailure  # no top-level export

    export_dir = os.path.join(workdir, "obs")
    builder = (
        PipelineBuilder("stateful-chaos")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030, name="e2e")
        .stateful("worker")
    )
    # tests/golden_stateful_scenario.py's spike -> failed migration ->
    # crash sequence, twice, at fixed fractions of the run
    for fraction in (0.15, 0.60):
        spike_at = fraction * duration
        builder.inject(
            ServiceSpike(at=spike_at, vertex="worker", factor=3.0, duration=0.1 * duration),
            MigrationFailure(at=spike_at + 2.0, duration=15.0, vertex="worker"),
            TaskCrash(at=spike_at + 0.15 * duration, vertex="worker", restart_delay=2.0),
            seed=seed,
        )
    builder.actuate()
    if obs:
        builder.observe(export_dir=export_dir, pin_wall_time=True)
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=seed, checkpoint_interval=10.0)
    )
    job = engine.submit(builder.build())

    def after_run(sim: Dict[str, object]) -> Dict[str, object]:
        recoveries = job.state_manager.crash_recoveries
        extra: Dict[str, object] = {"checks": {"crash_recovered": recoveries >= 1}}
        if not obs:
            return extra
        paths = engine.export_run(job=job)
        check = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "--check", "--obs-dir", export_dir],
            capture_output=True, text=True,
        )
        blobs = {kind: _read_bytes(path) for kind, path in sorted(paths.items())}
        extra["counters"] = {
            "obs.trace_records": len(job.trace),
            "obs.metric_rows": blobs["metrics"].count(b"\n"),
            "obs.export_bytes": sum(len(b) for b in blobs.values()),
        }
        extra["checks"].update({
            "trace_check_passes": check.returncode == 0,
            "trace_non_empty": len(job.trace) > 0,
        })
        extra["ops"] = {"attempted": 1, "failed": int(check.returncode != 0)}
        extra["digest_blobs"] = blobs
        return extra

    return Built(engine, job, "sink", after_run)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# sweep_mixed
# ----------------------------------------------------------------------

SWEEP_WORKERS = 2
SWEEP_POLICIES = ("scale-reactively", "cpu-threshold", "rate", "drs", "daedalus")
#: the shared-cluster scenario preempts only from ~50 virtual seconds on
SHARED_MIN_VIRTUAL = 50.0


def build_sweep_grids(seed: int, seconds: float):
    """The two grids of ``sweep_mixed`` (setup phase: import + build)."""
    from repro.sweep import SweepGrid

    seeds = tuple(seed + offset for offset in range(4))
    mixed = SweepGrid(
        name="mixed", seeds=seeds, rates=(400.0,), bounds=(0.030,),
        workloads=("spike", "stateful"), actuation=(False,),
        duration=max(12.0, 8.0 * seconds), policies=SWEEP_POLICIES,
    )
    preset = SweepGrid.shared_cluster()
    shared = SweepGrid(
        name="shared", seeds=seeds, rates=preset.rates, bounds=preset.bounds,
        workloads=preset.workloads, actuation=preset.actuation,
        duration=max(SHARED_MIN_VIRTUAL, 7.0 * seconds),
    )
    return mixed, shared


def run_sweep_grids(grids, workdir: str, segment_wall_s: List[float],
                    after_grid: Callable[[], None]) -> List[object]:
    """The timed phase of ``sweep_mixed``; appends one wall time per grid."""
    from repro.sweep import run_sweep

    results = []
    for grid in grids:
        started = time.perf_counter()
        results.append(
            run_sweep(grid, os.path.join(workdir, grid.name), workers=SWEEP_WORKERS)
        )
        segment_wall_s.append(time.perf_counter() - started)
        after_grid()
    return results


def collect_sweep(results, workdir: str) -> Dict[str, object]:
    """Sim statistics, counters and checks from the merged aggregates."""
    shards = [s for r in results for s in r.aggregate["shards"]]
    expected = sum(r.stats.shards for r in results)
    # one constraint per grid point and constraint name, seeds pooled
    pooled: Dict[str, List[int]] = {}
    for shard in shards:
        group = shard["key"].rsplit("-s", 1)[0]
        for constraint in shard["constraints"]:
            met = pooled.setdefault(f"{group}/{constraint['name']}", [0, 0])
            met[0] += constraint["intervals"] - constraint["violations"]
            met[1] += constraint["intervals"]
    feeds = [
        s["series"]["feeds"]["e2e"] for s in shards if s["series"].get("feeds")
    ]
    states = [s["state"] for s in shards if s.get("state")]
    scalings = [s["scaling"] for s in shards if s.get("scaling")]
    clusters = [s["cluster"] for s in shards if s.get("cluster")]
    trace_records = metric_rows = export_bytes = 0
    blobs: Dict[str, bytes] = {}
    for result in results:
        blobs[result.aggregate_path[len(workdir):]] = _read_bytes(result.aggregate_path)
        shards_root = os.path.join(os.path.dirname(result.aggregate_path), "shards")
        for shard_dir in sorted(os.listdir(shards_root)):
            for name in ("manifest.json", "metrics.jsonl", "trace.jsonl"):
                path = os.path.join(shards_root, shard_dir, name)
                if not os.path.exists(path):
                    continue
                data = _read_bytes(path)
                export_bytes += len(data)
                if name == "trace.jsonl":
                    trace_records += data.count(b"\n")
                elif name == "metrics.jsonl":
                    metric_rows += data.count(b"\n")
    virtual = sum(s["virtual_time_s"] for s in shards)
    sim = {
        "fulfillment_min": min(
            (met / total for met, total in pooled.values() if total), default=None
        ),
        "task_seconds": sum(s["series"]["task_seconds"] for s in shards),
        # mean over single-job shards of the shard's mean latency
        "latency_mean_ms": _mean([f["mean_latency"] for f in feeds]) * 1e3,
        # the aggregate carries no raw samples: mean over shards of the
        # shard's worst 5-s-interval p95 stands in for the tail
        "latency_p99_ms": _mean([f["max_p95_latency"] for f in feeds]) * 1e3,
        "latency_samples": len(feeds),
    }
    counters = {
        "simulation.kernel.fired_events": sum(s["fired_events"] for s in shards),
        "engine.scheduler.admission_denials": sum(c["admission_denials"] for c in clusters),
        "engine.scheduler.preempted_tasks": sum(c["preempted_tasks"] for c in clusters),
        "engine.state.migrations_completed": sum(s["migrations"]["completed"] for s in states),
        "engine.state.migrations_rolled_back": sum(
            s["migrations"]["rolled_back"] for s in states
        ),
        "engine.state.migrated_bytes": sum(s["state_migrated_bytes"] for s in states),
        "engine.state.checkpoints": sum(s["checkpoints"] for s in states),
        "engine.state.migration_pause_sim_s": sum(s["migration_pause_s"] for s in states),
        "engine.state.crash_recoveries": sum(s["crash_recoveries"] for s in states),
        "core.rounds": sum(s["rounds"] for s in scalings),
        "core.activations": sum(s["activations"] for s in scalings),
        "core.skipped_stale": sum(s["skipped_stale"] for s in scalings),
        "obs.trace_records": trace_records,
        "obs.metric_rows": metric_rows,
        "obs.export_bytes": export_bytes,
        "sweep.shards_done": sum(r.stats.done for r in results),
        "sweep.retries": sum(r.stats.retried for r in results),
    }
    failed = sum(r.stats.failed for r in results)
    checks = {
        "all_shards_merged": len(shards) == expected and failed == 0,
        "every_shard_ran_full_length": all(
            s["virtual_time_s"] == s["params"]["duration"] for s in shards
        ),
        "every_constraint_observed": all(total > 0 for _, total in pooled.values()),
    }
    return {
        "virtual_s": virtual,
        "sim": sim,
        "counters": counters,
        "checks": checks,
        "ops": {"attempted": expected, "failed": failed},
        "digest_blobs": blobs,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "twitter_elastic",
        "the paper's Fig. 8 TwitterSentiment job under reactive scaling: every layer "
        "participates and none dominates, so this is the number users feel",
        48.0, 120.0, 150.0, _build_twitter,
    ),
    Workload(
        "station_saturated",
        "two fixed-parallelism stages at rho = 0.8 with instant flush: the per-item data "
        "plane alone (task, queue, one ship per item, kernel); doubles as the theory oracle",
        9.0, 11.0, 3700.0, _build_station,
    ),
    Workload(
        "shuffle_batched",
        "8x8 keyed shuffle with 16 KiB output buffers: the same task/channel layer used "
        "ship-per-batch, so a per-item gain that costs batched shipping shows here",
        8.0, 11.0, 3700.0, _build_shuffle,
    ),
    Workload(
        "control_wide",
        "64-stage elastic chain at 2 items/s: reporter flush, manager collect, summary merge "
        "and the scaler round over 64 vertices do the work; catches O(V^2) in qos/core",
        200.0, 120.0, 1.7, _build_control,
    ),
    Workload(
        "stateful_chaos",
        "stateful worker under spikes, failed migrations and crashes with obs on and "
        "export: the only run of engine.state, actuation, faults and obs export",
        100.0, 36.0, 300.0, _build_chaos,
    ),
    Workload(
        "sweep_mixed",
        "run_sweep with 2 workers over 40 policy-tournament shards plus 4 shared-cluster "
        "shards: pool spawn/poll, shard checkpoints, merge, admission and preemption",
        0.0, 0.0, 0.0, None,
    ),
)}
