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

A variant is one :func:`repro.experiments.step_load.run_point` call,
so an ablation, a sensitivity point, a policy and a Fig. 6 run share
one run and one outcome.

Run:  python -m repro experiment ablations
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.report import format_table, write_csv
from repro.experiments.step_load import (
    CSV_HEADERS,
    HEADERS,
    Point,
    StepLoadParams,
    run_point,
)

#: variant name -> the control parameter it overrides (none: the paper's defaults)
VARIANTS = {
    "paper defaults": {},
    "no fitting (e=1)": {"e_bounds": (1.0, 1.0)},
    "w_fraction=0.5": {"w_fraction": 0.5},
    "no inactivity": {"inactivity_intervals": 0},
}


class AblationResult:
    """One point per variant, in :data:`VARIANTS` order."""

    def __init__(self, params: StepLoadParams) -> None:
        self.params = params
        self.variants: Dict[str, Point] = {}

    def report(self) -> str:
        """The ablation table."""
        return format_table(
            ["variant", *HEADERS],
            [[name, *point.cells()] for name, point in self.variants.items()],
            title="Ablations on the elastic PrimeTester (quick scenario)",
        )

    def series_csv(self, path: str) -> str:
        """Export every variant's outcome."""
        return write_csv(
            path,
            ["variant", *CSV_HEADERS],
            [[name, *point.csv_cells()] for name, point in self.variants.items()],
        )


def run(params: Optional[StepLoadParams] = None) -> AblationResult:
    """Run every variant (default scenario: the quick step load)."""
    params = params or StepLoadParams().quick()
    result = AblationResult(params)
    for name, overrides in VARIANTS.items():
        result.variants[name], _ = run_point(params, **overrides)
    return result
