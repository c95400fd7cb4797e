"""Policy comparison experiment (Sec. VI, quantified).

Runs the step-load PrimeTester under four scaling policies and compares
constraint fulfillment, resource consumption and scaling churn:

* ``scale-reactively`` — the paper's latency-constraint-driven policy;
* ``predictive`` — its Holt-forecast extension (the paper's future work);
* ``cpu-threshold`` — overload prevention à la SEEP / MillWheel;
* ``rate-based`` — feed-forward sizing à la Sattler & Beier.

The paper's Sec. VI positions these as designed for different goals
("their scaling policies are designed to prevent overload/bottlenecks,
conversely our policy is designed to minimize the violation of
user-defined latency constraints"); this harness measures the difference.

Every contender is a registry spec (:mod:`repro.core.policy`) submitted
with the pipeline — no policy is special-cased in engine or scaler code
paths.

Run:  python -m repro experiment policies [--quick]
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.experiments.report import format_table, write_csv
from repro.experiments.step_load import (
    CSV_HEADERS,
    HEADERS,
    Point,
    StepLoadParams,
    run_point,
)
from repro.workloads.primetester import STEP_LOAD, PrimeTesterParams

#: contender -> its registry knobs: CPU thresholds (high / low / target
#: utilization), rate-based headroom, predictive horizon in adjustment
#: intervals
POLICY_KNOBS = {
    "scale-reactively": {},
    "predictive": {"horizon": 1.0},
    "cpu-threshold": {"high": 0.8, "low": 0.3, "target": 0.6},
    "rate-based": {"headroom": 0.3},
}


@dataclass
class CompareParams(StepLoadParams):
    """Scenario knobs for the policy comparison."""

    workload: PrimeTesterParams = field(
        default_factory=lambda: replace(
            STEP_LOAD, peak_rate=350.0, increment_steps=6, step_duration=15.0
        )
    )


class CompareResult:
    """All policies' outcomes."""

    def __init__(self, params: CompareParams) -> None:
        self.params = params
        self.outcomes: Dict[str, Point] = {}

    def report(self) -> str:
        """The comparison table."""
        fulfilled = f"{self.params.constraint_bound * 1000:.0f}ms constraint fulfilled"
        return format_table(
            ["policy", fulfilled, *HEADERS[1:], "max p(PT)"],
            [
                [policy, *point.cells(), point.max_parallelism]
                for policy, point in self.outcomes.items()
            ],
            title="Scaling-policy comparison on the step-load PrimeTester (Sec. VI)",
        )

    def series_csv(self, path: str) -> str:
        """Export the outcomes."""
        return write_csv(
            path,
            ["policy", *CSV_HEADERS, "max_parallelism"],
            [
                [policy, *point.csv_cells(), point.max_parallelism]
                for policy, point in self.outcomes.items()
            ],
        )


def run(params: Optional[CompareParams] = None) -> CompareResult:
    """Run all four policies."""
    params = params or CompareParams()
    result = CompareResult(params)
    for policy, knobs in POLICY_KNOBS.items():
        result.outcomes[policy], _ = run_point(params, policy, **knobs)
    return result
