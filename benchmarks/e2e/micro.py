"""Micro rows: one layer's public functions called directly, tracing off.

Each row is the median of ``SAMPLES`` timings of a fixed amount of work
and costs a few tens of milliseconds, so all rows together stay within a
few seconds. A row whose target no longer exists reports ``None`` and a
reason instead of failing the run. The three kernel shapes are the ones
``repro bench`` times (``BENCH_core.json``), here without the legacy
twin and through the public ``Simulator`` API only.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, Optional, Tuple

from calibration import calibrate, reference_seconds

SAMPLES = 5


def _median_time(work: Callable[[], object], samples: int = SAMPLES) -> float:
    timings = []
    for _ in range(samples):
        started = time.perf_counter()
        work()
        timings.append(time.perf_counter() - started)
    return statistics.median(timings)


# ----------------------------------------------------------------------
# simulation
# ----------------------------------------------------------------------

KERNEL_EVENTS = 24_000
KERNEL_CHAINS = 8


def _chains(schedule, sim) -> None:
    remaining = [KERNEL_EVENTS // KERNEL_CHAINS] * KERNEL_CHAINS

    def tick(index: int) -> None:
        remaining[index] -= 1
        if remaining[index] > 0:
            schedule(0.001, tick, index)

    for index in range(KERNEL_CHAINS):
        schedule(0.0005 + 0.0001 * index, tick, index)
    sim.run()


def kernel_fire_ns() -> float:
    from repro import Simulator

    def work() -> None:
        sim = Simulator()
        _chains(sim.schedule_fire, sim)

    return _median_time(work) / KERNEL_EVENTS * 1e9


def kernel_handle_ns() -> float:
    from repro import Simulator

    def work() -> None:
        sim = Simulator()
        _chains(sim.schedule, sim)

    return _median_time(work) / KERNEL_EVENTS * 1e9


def kernel_batch_ns() -> float:
    from repro import Simulator

    per_chain = KERNEL_EVENTS // KERNEL_CHAINS

    def work() -> None:
        sim = Simulator()
        for index in range(KERNEL_CHAINS):
            base = 0.0005 + 0.0001 * index
            sim.schedule_batch(
                [base + 0.001 * step for step in range(per_chain)], _consume, index
            )
        sim.run()

    return _median_time(work) / KERNEL_EVENTS * 1e9


def _consume(index: int) -> None:
    pass


RANDOM_DRAWS = 32_768


def randomness_block_ns() -> float:
    from repro import Exponential, RandomStreams

    dist, rng = Exponential(1.0), RandomStreams(7).get("micro")
    return _median_time(lambda: dist.sample_block(rng, RANDOM_DRAWS)) / RANDOM_DRAWS * 1e9


def randomness_scalar_ns() -> float:
    from repro import Exponential, RandomStreams

    dist, rng = Exponential(1.0), RandomStreams(7).get("micro")

    def work() -> None:
        sample = dist.sample
        for _ in range(RANDOM_DRAWS):
            sample(rng)

    return _median_time(work) / RANDOM_DRAWS * 1e9


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

QUEUE_OPS = 40_000


def queues_putget_ns() -> float:
    from repro.engine.items import DataItem
    from repro.engine.queues import BoundedQueue

    queue, item = BoundedQueue(256), DataItem(0, 0.0)

    def work() -> None:
        put, get = queue.try_put, queue.get
        for _ in range(QUEUE_OPS):
            put(item, None)
            get()

    return _median_time(work) / QUEUE_OPS * 1e9


CHANNEL_RATE = 2000.0
CHANNEL_VIRTUAL_S = 1.5


def _channel_us(config_factory: Callable[[], object]) -> float:
    """Host microseconds per delivered item, source -> sink, one channel."""
    from repro import ConstantRate, PipelineBuilder, StreamProcessingEngine

    delivered = []

    def work() -> None:
        pipeline = (
            PipelineBuilder("micro-channel")
            .source(lambda now, rng: 0, rate=ConstantRate(CHANNEL_RATE))
            .sink()
            .build()
        )
        engine = StreamProcessingEngine(config_factory())
        job = engine.submit(pipeline)
        engine.run(CHANNEL_VIRTUAL_S)
        delivered.append(len(job.drain_sink_samples("sink")))

    seconds = _median_time(work)
    return seconds / max(1, statistics.median(delivered)) * 1e6


def channel_instant_us() -> float:
    from repro import EngineConfig

    return _channel_us(lambda: EngineConfig.nephele_instant_flush(seed=7))


def channel_fixed_us() -> float:
    from repro import EngineConfig

    return _channel_us(lambda: EngineConfig.nephele_fixed_buffer(seed=7))


def channel_adaptive_us() -> float:
    from repro import EngineConfig

    return _channel_us(lambda: EngineConfig.nephele_adaptive(seed=7))


# ----------------------------------------------------------------------
# qos
# ----------------------------------------------------------------------

STATS_ADDS = 50_000


def qos_stats_add_ns() -> float:
    from repro.qos.stats import OnlineStats

    def work() -> None:
        add = OnlineStats().add
        for index in range(STATS_ADDS):
            add(0.001 * (index & 7))

    return _median_time(work) / STATS_ADDS * 1e9


FLUSHES = 300
FLUSH_SAMPLES = 50


def qos_flush_us() -> float:
    """One TaskReporter.flush over 3 x 50 buffered samples."""
    from repro.qos.reporter import TaskReporter

    reporter = TaskReporter("v", "v[0]#1")
    values = [0.001 * (index & 7) for index in range(FLUSH_SAMPLES)]

    def work() -> None:
        for _ in range(FLUSHES):
            for value in values:
                reporter.record_task_latency(value)
                reporter.record_service_time(value)
                reporter.record_interarrival(value)
            reporter.flush(1.0)

    return _median_time(work) / FLUSHES * 1e6


MERGES = 40
MERGE_VERTICES = 64
MERGE_PARTIALS = 4


def qos_merge_us() -> float:
    """One merge of 4 partial summaries over 64 vertices and 65 edges."""
    from repro.qos.summary import (
        EdgeSummary,
        PartialSummary,
        VertexSummary,
        merge_partial_summaries,
    )

    partials = []
    for _ in range(MERGE_PARTIALS):
        partial = PartialSummary(5.0)
        for index in range(MERGE_VERTICES):
            name = f"m{index:02d}"
            partial.vertices[name] = VertexSummary(name, 0.004, 0.002, 0.7, 0.5, 1.0, 1)
        for index in range(MERGE_VERTICES + 1):
            name = f"e{index:02d}"
            partial.edges[name] = EdgeSummary(name, 0.01, 0.008, 4)
        partials.append(partial)

    def work() -> None:
        for _ in range(MERGES):
            merge_partial_summaries(5.0, partials)

    return _median_time(work) / MERGES * 1e6


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------

KINGMAN_CALLS = 50_000


def core_kingman_ns() -> float:
    from repro import kingman_waiting_time

    def work() -> None:
        for _ in range(KINGMAN_CALLS):
            kingman_waiting_time(180.0, 0.004, 1.0, 0.7)

    return _median_time(work) / KINGMAN_CALLS * 1e9


def _rebalance_ms(vertices: int) -> float:
    """One Rebalance over a sequence of ``vertices`` loaded vertices.

    The model is rebuilt per call: ``VertexModel`` memoizes its waits,
    and a scaler round always starts from a freshly fitted model. The
    budget is the wait at three tasks per vertex, so every vertex must
    be stepped up from its minimum of two.
    """
    from repro import SequenceLatencyModel, VertexModel, rebalance

    def fresh() -> Tuple[object, float]:
        models = [
            VertexModel(f"v{index}", 4, 2, 16, 100.0 + index % 7, 0.004, 0.75)
            for index in range(vertices)
        ]
        model = SequenceLatencyModel("micro", models)
        return model, model.total_waiting_time({m.name: 3 for m in models})

    def work() -> None:
        model, budget = fresh()
        rebalance(model, budget)

    # Rebalance is quadratic in the vertex count today (6 ms at 100,
    # 0.66 s at 1000): the largest size is timed once to fit the budget
    samples = SAMPLES if vertices <= 100 else 1
    build_only = _median_time(fresh, samples=samples)
    return max(0.0, _median_time(work, samples=samples) - build_only) * 1e3


def core_rebalance_ms_v10() -> float:
    return _rebalance_ms(10)


def core_rebalance_ms_v100() -> float:
    return _rebalance_ms(100)


def core_rebalance_ms_v1000() -> float:
    return _rebalance_ms(1000)


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------

REGISTRY_OPS = 40_000


def obs_registry_ns() -> float:
    """Get-or-create lookup plus increment, the instrumented call shape."""
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    names = [f"micro.counter{index}" for index in range(8)]

    def work() -> None:
        counter = registry.counter
        for index in range(REGISTRY_OPS):
            counter(names[index & 7]).inc()

    return _median_time(work) / REGISTRY_OPS * 1e9


OBS_VIRTUAL_S = 20.0


def _small_chaos(workdir: str, obs: bool):
    import workloads

    return workloads.WORKLOADS["stateful_chaos"].build(7, OBS_VIRTUAL_S, workdir, obs)


def obs_export_s(workdir: str) -> float:
    """``export_run`` of a 20-virtual-second stateful_chaos run."""
    built = _small_chaos(os.path.join(workdir, "export"), True)
    built.engine.run(OBS_VIRTUAL_S)
    return _median_time(lambda: built.engine.export_run(job=built.job))


def obs_overhead_pct(workdir: str) -> float:
    """Run-phase CPU cost of obs on vs. off, same 20-virtual-second job.

    The two sides differ by a few percent of a 0.2 s run, so this row
    takes CPU time and the fastest of four runs per side: disturbance
    only ever adds.
    """
    best: Dict[bool, float] = {}
    for _ in range(4):
        for obs in (False, True):
            built = _small_chaos(os.path.join(workdir, "overhead"), obs)
            started = time.process_time()
            built.engine.run(OBS_VIRTUAL_S)
            elapsed = time.process_time() - started
            best[obs] = min(best.get(obs, elapsed), elapsed)
    return (best[True] - best[False]) / best[False] * 100.0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

POOL_WORKERS = 2
SPAWN_JOBS = 8
SPIN_JOBS = 4
SPIN_ITERATIONS = 400_000


def _noop() -> None:
    pass


def _spin() -> None:
    total = 0
    for index in range(SPIN_ITERATIONS):
        total += index & 3


def sweep_spawn_ms() -> float:
    """Pool wall per no-op job: process start, poll, join."""
    from repro.sweep import PoolJob, run_pool

    def work() -> None:
        jobs = [PoolJob(f"noop{index}", _noop, ()) for index in range(SPAWN_JOBS)]
        run_pool(jobs, workers=POOL_WORKERS)

    return _median_time(work, samples=3) / SPAWN_JOBS * 1e3


def sweep_pool_efficiency() -> float:
    """Serial estimate / (pool wall x workers) over four CPU-bound jobs."""
    from repro.sweep import PoolJob, run_pool

    ratios = []
    for _ in range(3):
        jobs = [PoolJob(f"spin{index}", _spin, ()) for index in range(SPIN_JOBS)]
        stats, _outcomes = run_pool(jobs, workers=POOL_WORKERS)
        ratios.append(stats.serial_estimate_s / (stats.wall_s * POOL_WORKERS))
    return statistics.median(ratios)


MERGE_SHARDS = 200


def sweep_merge_s() -> float:
    """``merge_shard_results`` over 200 synthetic shard results."""
    from repro.sweep import merge_shard_results

    results = []
    for index in range(MERGE_SHARDS):
        params = {
            "seed": index % 8, "rate": 400.0, "bound": 0.03, "actuation": False,
            "workload": "spike" if index % 2 else "steady", "duration": 40.0,
            "policy": "scale-reactively",
        }
        results.append({
            "key": f"shard-{index:04d}", "params": params,
            "constraints": [{"fulfillment_ratio": 0.9, "violations": 1, "intervals": 8}],
            "final_parallelism": {"worker": 4},
            "series": {"mean_cpu_utilization": 0.5},
        })
    return _median_time(lambda: merge_shard_results({"name": "micro"}, results))


# ----------------------------------------------------------------------
# host
# ----------------------------------------------------------------------

CALIB_OPS = 300_000


def host_calib_mops() -> float:
    """A fixed pure-Python loop: a reading of the box, not of the repo."""
    def work() -> None:
        total = 0
        for index in range(CALIB_OPS):
            total += index & 3

    return CALIB_OPS / _median_time(work) / 1e6


#: metric name -> (row function, needs the scratch directory, is a time).
#: Times are rescaled to reference seconds (calibration.py); ratios,
#: percentages and the calibration reading itself are not.
ROWS: Dict[str, Tuple[Callable, bool, bool]] = {
    "simulation.kernel.fire_ns": (kernel_fire_ns, False, True),
    "simulation.kernel.handle_ns": (kernel_handle_ns, False, True),
    "simulation.kernel.batch_ns": (kernel_batch_ns, False, True),
    "simulation.randomness.block_ns": (randomness_block_ns, False, True),
    "simulation.randomness.scalar_ns": (randomness_scalar_ns, False, True),
    "engine.queues.putget_ns": (queues_putget_ns, False, True),
    "engine.channel.instant_us": (channel_instant_us, False, True),
    "engine.channel.fixed_us": (channel_fixed_us, False, True),
    "engine.channel.adaptive_us": (channel_adaptive_us, False, True),
    "qos.stats_add_ns": (qos_stats_add_ns, False, True),
    "qos.flush_us": (qos_flush_us, False, True),
    "qos.merge_us": (qos_merge_us, False, True),
    "core.kingman_ns": (core_kingman_ns, False, True),
    "core.rebalance_ms.v10": (core_rebalance_ms_v10, False, True),
    "core.rebalance_ms.v100": (core_rebalance_ms_v100, False, True),
    "core.rebalance_ms.v1000": (core_rebalance_ms_v1000, False, True),
    "obs.registry_ns": (obs_registry_ns, False, True),
    "obs.export_s": (obs_export_s, True, True),
    "obs.overhead_pct": (obs_overhead_pct, True, False),
    "sweep.spawn_ms": (sweep_spawn_ms, False, True),
    "sweep.pool_efficiency": (sweep_pool_efficiency, False, False),
    "sweep.merge_s": (sweep_merge_s, False, True),
    "host.calib_mops": (host_calib_mops, False, False),
}


def run_all(workdir: str) -> Dict[str, object]:
    values: Dict[str, Optional[float]] = {}
    unavailable: Dict[str, str] = {}
    after = calibrate(3)
    for name, (row, needs_dir, is_time) in ROWS.items():
        before = after
        try:
            value = row(workdir) if needs_dir else row()
        except (ImportError, AttributeError, TypeError) as exc:
            value = None
            unavailable[name] = f"{type(exc).__name__}: {exc}"
        after = calibrate(3)
        if is_time and value is not None:
            value = reference_seconds(value, (before + after) / 2.0)
        values[name] = value
    return {"micro": values, "unavailable": unavailable}
