"""Figure 3 reproduction: why elasticity? (paper Sec. III).

Runs the PrimeTester job with *static* provisioning under the step-load
phase plan, once per configuration:

* ``Storm``          — instant flushing (Storm-like overheads);
* ``Nephele-IF``     — instant flushing, Nephele overheads;
* ``Nephele-16KiB``  — fixed 16 KiB output buffers (throughput-optimized);
* ``Nephele-20ms``   — adaptive output batching against a 20 ms
  constraint (no elastic scaling).

Reported per configuration (the paper's Fig. 3 shape):

* warm-up steady-state mean latency (instant ≪ 20 ms ≪ 16 KiB);
* the time at which queueing loses steady state (instant first, then
  20 ms, then 16 KiB);
* peak effective throughput (16 KiB > 20 ms > instant).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.engine.engine import EngineConfig
from repro.experiments.recording import SeriesRecorder
from repro.experiments.report import format_table, ms, write_csv
from repro.workloads.primetester import (
    SCALED_CLUSTER,
    STEP_LOAD,
    PrimeTesterParams,
    run_primetester,
)


@dataclass
class Fig3Params:
    """Run-scale knobs for the Fig. 3 experiment."""

    #: static provisioning: the tester parallelism is pinned
    workload: PrimeTesterParams = field(
        default_factory=lambda: replace(
            STEP_LOAD, tester_min=8, tester_max=8, peak_rate=460.0, step_duration=15.0
        )
    )
    #: latency constraint of the Nephele-20ms configuration
    constraint_bound: float = 0.020
    recording_interval: float = 5.0
    seed: int = 7

    def quick(self) -> "Fig3Params":
        """The reduced variant, ``--quick`` (same shape, less wall time).

        The peak rate stays well above the instant-flush capacity so the
        saturation-driven throughput gap between the configurations is
        visible even in the short steps.
        """
        workload = replace(
            self.workload,
            step_duration=5.0,
            increment_steps=5,
            peak_rate=400.0,
        )
        return replace(self, workload=workload, recording_interval=2.5)


class ConfigResult:
    """Per-configuration series and derived Fig. 3 statistics."""

    def __init__(self, name: str, recorder: SeriesRecorder, workload: PrimeTesterParams) -> None:
        self.name = name
        self.rows = recorder.rows
        warm = [
            r.latency_mean.get("e2e")
            for r in self.rows
            if r.time <= workload.step_duration and r.latency_mean.get("e2e") is not None
        ]
        self.warmup_latency = sum(warm) / len(warm) if warm else None
        self.saturation_time = self._find_saturation()
        # Sustained throughput: mean effective rate over the plateau phase
        # (where the paper's curves flatten at each config's capacity).
        plateau_start = workload.step_duration * (1 + workload.increment_steps)
        plateau_end = plateau_start + workload.step_duration * workload.plateau_steps
        plateau = [
            r.effective_rate for r in self.rows if plateau_start < r.time <= plateau_end
        ]
        self.plateau_effective_rate = sum(plateau) / len(plateau) if plateau else 0.0

    def _find_saturation(self) -> Optional[float]:
        """First time queues lose steady state.

        Detected as the onset of backpressure: the effective source rate
        falls measurably below the attempted rate (the paper describes
        the same cascade — queues grow until full, then backpressure
        throttles the sources).
        """
        streak = 0
        for row in self.rows:
            if row.attempted_rate > 300 and row.effective_rate < 0.9 * row.attempted_rate:
                streak += 1
                if streak >= 2:  # sustained, not a step-boundary artifact
                    return row.time
            else:
                streak = 0
        return None


class Fig3Result:
    """All four configurations' results."""

    def __init__(self, params: Fig3Params) -> None:
        self.params = params
        self.configs: Dict[str, ConfigResult] = {}

    def report(self) -> str:
        """Fig. 3 summary table (the paper's qualitative shape)."""
        rows = []
        baseline = None
        for name, cfg in self.configs.items():
            if baseline is None and cfg.plateau_effective_rate > 0:
                baseline = cfg.plateau_effective_rate
            gain = (
                f"{cfg.plateau_effective_rate / baseline - 1.0:+.0%}"
                if baseline
                else "-"
            )
            rows.append(
                [
                    name,
                    ms(cfg.warmup_latency),
                    cfg.saturation_time,
                    round(cfg.plateau_effective_rate),
                    gain,
                ]
            )
        return format_table(
            [
                "config",
                "warmup latency (ms)",
                "loses steady state (s)",
                "plateau eff. rate (items/s)",
                "vs instant",
            ],
            rows,
            title="Fig. 3 — PrimeTester, static provisioning, step load",
        )

    def series_csv(self, path: str) -> str:
        """Write all configurations' latency/throughput series to CSV."""
        rows = []
        for name, cfg in self.configs.items():
            for row in cfg.rows:
                rows.append(
                    [
                        name,
                        row.time,
                        row.attempted_rate,
                        row.effective_rate,
                        ms(row.latency_mean.get("e2e")),
                        ms(row.latency_p95.get("e2e")),
                    ]
                )
        return write_csv(
            path,
            ["config", "time_s", "attempted_rate", "effective_rate", "mean_ms", "p95_ms"],
            rows,
        )


#: configuration -> (engine preset, what it changes on the scaled cluster);
#: Storm ships each batch at a tenth more than Nephele
PRESETS = {
    "Storm": (
        EngineConfig.storm_like,
        {"per_batch_overhead": SCALED_CLUSTER["per_batch_overhead"] * 1.1},
    ),
    "Nephele-IF": (EngineConfig.nephele_instant_flush, {}),
    "Nephele-16KiB": (EngineConfig.nephele_fixed_buffer, {}),
    "Nephele-20ms": (EngineConfig.nephele_adaptive, {}),
}

CONFIG_NAMES = tuple(PRESETS)


def _engine_config(name: str, params: Fig3Params) -> EngineConfig:
    if name not in PRESETS:
        raise ValueError(f"unknown configuration {name!r}")
    preset, overrides = PRESETS[name]
    return preset(**{**SCALED_CLUSTER, **overrides, "seed": params.seed})


def run_config(name: str, params: Fig3Params) -> ConfigResult:
    """Run one Fig. 3 configuration to completion."""
    _, recorder = run_primetester(
        params.workload,
        _engine_config(name, params),
        bound=params.constraint_bound if name == "Nephele-20ms" else None,
        recording_interval=params.recording_interval,
    )
    return ConfigResult(name, recorder, params.workload)


def run(params: Optional[Fig3Params] = None) -> Fig3Result:
    """Run the Fig. 3 experiment for all four configurations."""
    params = params or Fig3Params()
    result = Fig3Result(params)
    for name in CONFIG_NAMES:
        result.configs[name] = run_config(name, params)
    return result
