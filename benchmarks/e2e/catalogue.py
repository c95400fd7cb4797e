"""The metric catalogue: names, kinds, units, directions, bounds, moves.

``BENCHMARK.json`` at the repo root is this catalogue reduced to the
keys the driver's contract allows (``python benchmarks/e2e/run.py
catalogue`` prints it; a self-test keeps the two equal). What the
contract has no key for lives only here: each metric's ``kind`` --
``host`` (what the simulator costs; noisy) or ``sim`` (what the modelled
SPE did; repeats exactly for a fixed seed) -- and each layer metric's
``moves``: which end-to-end metric it should move, on which workload,
and where it should not.
"""

from __future__ import annotations

from typing import Dict, List

import layers
import workloads

RUN_SECONDS = 5

#: name, kind, unit, better, bound, meaning. The bounds gate runs made
#: with *different* seeds (the driver's spread check), so the sim
#: metrics' bounds cover their seed-to-seed spread; for a fixed seed a
#: sim metric repeats exactly and ``compare`` reports any difference.
END_TO_END = (
    ("sim_speed", "host", "sim-s/ref-s", "higher", 0.25,
     "simulated seconds advanced per host second over the run phase (engine.run / "
     "run_sweep; sweep_mixed: summed shard virtual seconds / sweep time), host seconds "
     "rescaled to the reference box's undisturbed speed"),
    ("setup_s", "host", "s", "lower", 0.25,
     "fresh interpreter start -> first engine.run / run_sweep call (import repro, "
     "build graph, submit), in reference seconds; median of 8 fresh processes"),
    ("peak_rss_mb", "host", "MiB", "lower", 0.10,
     "ru_maxrss of the run process (max over children for sweep_mixed)"),
    ("fulfillment_min", "sim", "ratio", "higher", 0.15,
     "min over constraints of the share of adjustment intervals meeting the bound "
     "(sweep_mixed: per grid point, seeds pooled) -- the paper's guarantee"),
    ("task_seconds", "sim", "task-s", "lower", 0.15,
     "engine.resources.task_seconds() (sweep_mixed: summed over shards) -- the paper's cost"),
    ("latency_mean_ms", "sim", "ms", "lower", 0.25,
     "mean simulated source-to-sink latency from drain_sink_samples, queue wait included "
     "(sweep_mixed: mean over shards of the shard mean)"),
    ("latency_p99_ms", "sim", "ms", "lower", 0.25,
     "p99 of the same samples, nearest rank (sweep_mixed: mean over shards of the "
     "shard's worst 5-s-interval p95 -- the aggregate carries no samples)"),
)

FROM_TRACE = "traced run"
FROM_COUNTER = "exact counter"
FROM_MICRO = "micro row"

_DATA_PLANE = ("sim_speed on station_saturated and twitter_elastic; "
               "not on control_wide (data plane about a quarter there)")
_BATCHED = "sim_speed on shuffle_batched; not on station_saturated"
_CONTROL = "sim_speed on control_wide; not on station_saturated (core share 0 %)"
_CHAOS = ("sim_speed and peak_rss_mb on stateful_chaos; "
          "not on the obs-off, stateless workloads")
_SWEEP = "sim_speed on sweep_mixed; not on the five in-process workloads"
_OUTCOME = ("a host-only change must not move it, nor fulfillment_min, task_seconds, "
            "latency_* or sim_digest on any workload")

#: exact counters: name -> (unit, better, moves)
COUNTERS = {
    "simulation.kernel.fired_events": ("count", "lower", _DATA_PLANE),
    "simulation.kernel.max_heap": ("count", "lower", "peak_rss_mb on every workload"),
    "simulation.kernel.events_per_item": ("count", "lower", _DATA_PLANE),
    "engine.task.items_processed": ("count", "higher", _OUTCOME),
    "engine.task.busy_sim_s": ("sim-s", "lower", _OUTCOME),
    "engine.task.flushes": ("count", "lower", _BATCHED),
    "engine.queues.enqueued": ("count", "higher", _OUTCOME),
    "engine.channel.items_delivered": ("count", "higher", _OUTCOME),
    "engine.channel.batches_shipped": ("count", "lower", _BATCHED),
    "engine.channel.items_per_batch": ("count", "higher", _BATCHED),
    "engine.channel.items_lost": ("count", "lower", _OUTCOME),
    "engine.scheduler.admission_denials": ("count", "lower",
                                           "fulfillment_min on sweep_mixed"),
    "engine.scheduler.preempted_tasks": ("count", "lower", "fulfillment_min on sweep_mixed"),
    "engine.state.migrations_completed": ("count", "higher", _CHAOS),
    "engine.state.migrations_rolled_back": ("count", "lower", _CHAOS),
    "engine.state.migrated_bytes": ("bytes", "lower", _CHAOS),
    "engine.state.checkpoints": ("count", "lower", _CHAOS),
    "engine.state.migration_pause_sim_s": ("sim-s", "lower",
                                           "latency_p99_ms on stateful_chaos"),
    "engine.state.crash_recoveries": ("count", "higher", _CHAOS),
    "core.rounds": ("count", "lower", _CONTROL),
    "core.activations": ("count", "lower",
                         "task_seconds and fulfillment_min on the elastic workloads"),
    "core.skipped_stale": ("count", "lower", "fulfillment_min on stateful_chaos"),
    "actuation.requests": ("count", "lower", _CHAOS),
    "actuation.retries": ("count", "lower", _CHAOS),
    "actuation.give_ups": ("count", "lower", "fulfillment_min on stateful_chaos"),
    "obs.trace_records": ("count", "lower", _CHAOS),
    "obs.metric_rows": ("count", "lower", _CHAOS),
    "obs.export_bytes": ("bytes", "lower", _CHAOS),
    "sweep.shards_done": ("count", "higher", _SWEEP),
    "sweep.retries": ("count", "lower", _SWEEP),
}

#: micro rows: name -> (unit, better, moves)
MICRO = {
    "simulation.kernel.fire_ns": ("ns", "lower", _DATA_PLANE),
    "simulation.kernel.handle_ns": ("ns", "lower", _CONTROL),
    "simulation.kernel.batch_ns": ("ns", "lower", _DATA_PLANE),
    "simulation.randomness.block_ns": ("ns", "lower", _DATA_PLANE),
    "simulation.randomness.scalar_ns": ("ns", "lower",
                                        "sim_speed on twitter_elastic (Gamma falls back to "
                                        "scalar draws); not on sweep_mixed"),
    "engine.queues.putget_ns": ("ns", "lower", _DATA_PLANE),
    "engine.channel.instant_us": ("us", "lower", _DATA_PLANE),
    "engine.channel.fixed_us": ("us", "lower", _BATCHED),
    "engine.channel.adaptive_us": ("us", "lower",
                                   "sim_speed on twitter_elastic; not on station_saturated "
                                   "or shuffle_batched"),
    "qos.stats_add_ns": ("ns", "lower",
                         "sim_speed on every in-process workload (~1.9 calls per fired "
                         "event), most on station_saturated and shuffle_batched"),
    "qos.flush_us": ("us", "lower", _CONTROL),
    "qos.merge_us": ("us", "lower", _CONTROL),
    "core.kingman_ns": ("ns", "lower", _CONTROL),
    "core.rebalance_ms.v10": ("ms", "lower", _CONTROL),
    "core.rebalance_ms.v100": ("ms", "lower", _CONTROL),
    "core.rebalance_ms.v1000": ("ms", "lower", _CONTROL),
    "obs.registry_ns": ("ns", "lower", _CHAOS),
    "obs.export_s": ("s", "lower", _CHAOS),
    "obs.overhead_pct": ("%", "lower", _CHAOS),
    "sweep.spawn_ms": ("ms", "lower", _SWEEP),
    "sweep.pool_efficiency": ("ratio", "higher", _SWEEP),
    "sweep.merge_s": ("s", "lower", _SWEEP),
    "host.calib_mops": ("Mop/s", "higher",
                        "nothing: a reading of the box, to explain a noisy run"),
}

_LAYER_MOVES = {
    "simulation.kernel": _DATA_PLANE,
    "simulation.randomness": _DATA_PLANE,
    "engine.task": _DATA_PLANE,
    "engine.queues": _DATA_PLANE,
    "engine.channel": "sim_speed on shuffle_batched (batched) and station_saturated "
                      "(per item), in opposite directions if one path pays for the other",
    "engine.scheduler": "setup_s everywhere; sim_speed on twitter_elastic and stateful_chaos",
    "engine.state": _CHAOS,
    "qos": _CONTROL,
    "core": _CONTROL,
    "actuation": _CHAOS,
    "obs": _CHAOS,
    "workloads": "sim_speed on twitter_elastic (UDF bodies); not on control_wide",
    "sweep": _SWEEP,
    "host": "nothing by itself: what is left when the repo's layers are subtracted",
}

#: per-layer metrics outside the three families
OTHER = {
    "trace_overhead_x": ("x", "lower", FROM_TRACE,
                         "nothing: traced wall / untraced wall of the same job"),
    "theory_error_pct": ("%", "lower", "sim statistic",
                         "station_saturated only (0 elsewhere): |measured - "
                         "predict_pipeline_latency| / predicted; a faster simulator that "
                         "simulates something else moves this"),
}


def per_layer() -> List[Dict[str, str]]:
    """Every per-layer metric with unit, direction, source and moves."""
    rows: List[Dict[str, str]] = []
    for layer in layers.LAYERS:
        for suffix, unit in (("self_s", "s"), ("share", "ratio"), ("calls", "count")):
            rows.append({"name": f"{layer}.{suffix}", "unit": unit, "better": "lower",
                         "source": FROM_TRACE, "moves": _LAYER_MOVES[layer]})
    for name, (unit, better, moves) in COUNTERS.items():
        rows.append({"name": name, "unit": unit, "better": better,
                     "source": FROM_COUNTER, "moves": moves})
    for name, (unit, better, moves) in MICRO.items():
        rows.append({"name": name, "unit": unit, "better": better,
                     "source": FROM_MICRO, "moves": moves})
    for name, (unit, better, source, moves) in OTHER.items():
        rows.append({"name": name, "unit": unit, "better": better,
                     "source": source, "moves": moves})
    return rows


def benchmark_json() -> Dict[str, object]:
    """The catalogue in the driver's ``BENCHMARK.json`` form."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, _kind, unit, better, bound, _meaning in END_TO_END
        ],
        "per_layer": [
            {"name": row["name"], "unit": row["unit"], "better": row["better"]}
            for row in per_layer()
        ],
    }

