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

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import format_table, write_csv
from repro.experiments.step_load import (
    CSV_HEADERS,
    HEADERS,
    Point,
    StepLoadParams,
    run_point,
)
from repro.workloads.primetester import STEP_LOAD, PrimeTesterParams


@dataclass
class SensitivityParams(StepLoadParams):
    """Scenario and sweep grid."""

    workload: PrimeTesterParams = field(
        default_factory=lambda: replace(
            STEP_LOAD, peak_rate=350.0, increment_steps=6, step_duration=12.0
        )
    )
    sweeps: Dict[str, Tuple] = field(
        default_factory=lambda: {
            "adjustment_interval": (2.5, 5.0, 10.0),
            "rho_max": (0.8, 0.9, 0.97),
            "w_fraction": (0.1, 0.2, 0.4),
            "inactivity_intervals": (0, 2, 4),
            "summary_window": (2, 5, 10),
        }
    )

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


class SensitivityResult:
    """All sweep points, grouped by parameter."""

    def __init__(self, params: SensitivityParams) -> None:
        self.params = params
        #: (parameter, value, point) in sweep order
        self.points: List[Tuple[str, object, Point]] = []

    def report(self) -> str:
        """One table per swept parameter."""
        blocks = ["Sensitivity of ScaleReactively to its control parameters"]
        for parameter in dict.fromkeys(name for name, _, _ in self.points):
            rows = [
                [value, *point.cells()]
                for name, value, point in self.points
                if name == parameter
            ]
            blocks.append("")
            blocks.append(format_table([parameter, *HEADERS], rows))
        return "\n".join(blocks)

    def series_csv(self, path: str) -> str:
        """Export all sweep points."""
        return write_csv(
            path,
            ["parameter", "value", *CSV_HEADERS],
            [[name, value, *point.csv_cells()] for name, value, point in self.points],
        )


def run(params: Optional[SensitivityParams] = None) -> SensitivityResult:
    """Run the full sweep grid: one :func:`run_point` per parameter value."""
    params = params or SensitivityParams()
    result = SensitivityResult(params)
    for parameter, values in params.sweeps.items():
        for value in values:
            point, _ = run_point(params, **{parameter: value})
            result.points.append((parameter, value, point))
    return result
