"""Ablations of the design choices DESIGN.md calls out.

Each variant runs the elastic PrimeTester under the quick Fig. 6 step
load with one mechanism altered and reports the effect on constraint
fulfillment, resource consumption and scaling churn:

* **fitting coefficient** ``e_jv`` on vs. off (paper Sec. IV-C2: without
  it "the model might recommend a scale-down when a scale-up would
  actually be necessary");
* **queue-wait share** ``w_fraction`` (paper fixes 20 % for queueing /
  80 % for batching);
* **post-scale-up inactivity** (paper: 2 adjustment intervals).

A variant is one :func:`repro.experiments.sensitivity.run_point` call,
so an ablation and a sensitivity point run the same code.

Run:  python -m repro experiment ablations
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.experiments.report import format_table, write_csv
from repro.experiments.sensitivity import SensitivityParams, SweepPoint, run_point
from repro.workloads.primetester import STEP_LOAD

#: variant name -> the control parameter it overrides (none: the paper's defaults)
VARIANTS = {
    "paper defaults": {},
    "no fitting (e=1)": {"e_bounds": (1.0, 1.0)},
    "w_fraction=0.5": {"w_fraction": 0.5},
    "no inactivity": {"inactivity_intervals": 0},
}


class AblationResult:
    """One sweep point per variant, in :data:`VARIANTS` order."""

    def __init__(self, params: SensitivityParams) -> None:
        self.params = params
        self.variants: Dict[str, SweepPoint] = {}

    def report(self) -> str:
        """The ablation table."""
        rows = [
            [name, f"{p.fulfillment * 100:.1f}%", round(p.task_seconds), p.scaling_events]
            for name, p in self.variants.items()
        ]
        return format_table(
            ["variant", "fulfilled", "task-seconds", "scaling events"],
            rows,
            title="Ablations on the elastic PrimeTester (quick scenario)",
        )

    def series_csv(self, path: str) -> str:
        """Export every variant's outcome."""
        return write_csv(
            path,
            ["variant", "fulfillment", "task_seconds", "scaling_events"],
            [
                [name, p.fulfillment, p.task_seconds, p.scaling_events]
                for name, p in self.variants.items()
            ],
        )


def run(params: Optional[SensitivityParams] = None) -> AblationResult:
    """Run every variant (default scenario: Fig. 6's quick step load)."""
    params = params or SensitivityParams(
        workload=replace(STEP_LOAD, peak_rate=300.0, increment_steps=5, step_duration=8.0)
    )
    result = AblationResult(params)
    for name, overrides in VARIANTS.items():
        result.variants[name] = run_point(params, **overrides)
    return result
