"""Sensitivity analysis of the strategy's own parameters.

The paper fixes several control parameters (measurement interval 1 s,
adjustment interval 5 s, ``ρ_max`` close to 1, queue-wait share 20 %,
inactivity 2 intervals) without sweeping them. This harness sweeps each
one on the step-load PrimeTester and reports constraint fulfillment,
resource consumption and scaling churn — quantifying how robust the
strategy is to its own knobs.

Run:  python -m repro experiment sensitivity [--quick]
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.core.policy import DEFAULT_POLICY, PolicySpec
from repro.engine.engine import EngineConfig
from repro.experiments.report import format_table, write_csv
from repro.workloads.primetester import (
    SCALED_CLUSTER,
    STEP_LOAD,
    PrimeTesterParams,
    run_primetester,
)


@dataclass
class SensitivityParams:
    """Scenario and sweep grid."""

    workload: PrimeTesterParams = field(
        default_factory=lambda: replace(
            STEP_LOAD, peak_rate=350.0, increment_steps=6, step_duration=12.0
        )
    )
    constraint_bound: float = 0.020
    sweeps: Dict[str, Tuple] = field(
        default_factory=lambda: {
            "adjustment_interval": (2.5, 5.0, 10.0),
            "rho_max": (0.8, 0.9, 0.97),
            "w_fraction": (0.1, 0.2, 0.4),
            "inactivity_intervals": (0, 2, 4),
            "summary_window": (2, 5, 10),
        }
    )
    seed: int = 11

    def quick(self) -> "SensitivityParams":
        """The reduced grid, ``--quick``."""
        workload = replace(self.workload, step_duration=6.0, increment_steps=4)
        return replace(
            self,
            workload=workload,
            sweeps={
                "rho_max": (0.8, 0.97),
                "w_fraction": (0.1, 0.4),
            },
        )


class SweepPoint:
    """Result of one parameter setting."""

    __slots__ = ("parameter", "value", "fulfillment", "task_seconds", "scaling_events")

    def __init__(self, parameter: str, value, fulfillment: float, task_seconds: float, scaling_events: int) -> None:
        self.parameter = parameter
        self.value = value
        self.fulfillment = fulfillment
        self.task_seconds = task_seconds
        self.scaling_events = scaling_events


class SensitivityResult:
    """All sweep points, grouped by parameter."""

    def __init__(self, params: SensitivityParams) -> None:
        self.params = params
        self.points: List[SweepPoint] = []

    def report(self) -> str:
        """One table per swept parameter."""
        blocks = ["Sensitivity of ScaleReactively to its control parameters"]
        for parameter in dict.fromkeys(p.parameter for p in self.points):
            rows = [
                [p.value, f"{p.fulfillment * 100:.1f}%", round(p.task_seconds), p.scaling_events]
                for p in self.points
                if p.parameter == parameter
            ]
            blocks.append("")
            blocks.append(
                format_table(
                    [parameter, "fulfilled", "task-seconds", "scaling events"], rows
                )
            )
        return "\n".join(blocks)

    def series_csv(self, path: str) -> str:
        """Export all sweep points."""
        return write_csv(
            path,
            ["parameter", "value", "fulfillment", "task_seconds", "scaling_events"],
            [
                [p.parameter, p.value, p.fulfillment, p.task_seconds, p.scaling_events]
                for p in self.points
            ],
        )


def run_point(params: SensitivityParams, **overrides) -> SweepPoint:
    """Run the scenario once with one overridden control parameter.

    An :class:`EngineConfig` field overrides the config; anything else
    (``rho_max``, ``w_fraction``) is a knob of the paper's policy.
    """
    engine_fields = {f.name for f in fields(EngineConfig)}
    config = EngineConfig.nephele_adaptive(
        elastic=True, seed=params.seed, **SCALED_CLUSTER,
        **{k: v for k, v in overrides.items() if k in engine_fields},
    )
    knobs = {k: v for k, v in overrides.items() if k not in engine_fields}
    job, _ = run_primetester(
        params.workload, config, bound=params.constraint_bound,
        policy=PolicySpec(DEFAULT_POLICY, knobs),
    )
    (parameter, value), = overrides.items() if overrides else (("baseline", None),)
    return SweepPoint(
        parameter,
        value,
        job.trackers[0].fulfillment_ratio,
        job.engine.resources.task_seconds(),
        len(job.scaler.events),
    )


def run(params: Optional[SensitivityParams] = None) -> SensitivityResult:
    """Run the full sweep grid."""
    params = params or SensitivityParams()
    result = SensitivityResult(params)
    for parameter, values in params.sweeps.items():
        for value in values:
            result.points.append(run_point(params, **{parameter: value}))
    return result
