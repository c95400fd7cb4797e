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

Run:  python -m repro.experiments.compare_policies [--quick]
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Optional

from repro.core.policy import PolicySpec
from repro.engine.engine import EngineConfig
from repro.experiments.report import format_table, main as figure_main, write_csv
from repro.workloads.primetester import (
    SCALED_CLUSTER,
    STEP_LOAD,
    PrimeTesterParams,
    run_primetester,
)

#: contender -> its registry knobs: CPU thresholds (high / low / target
#: utilization), rate-based headroom, predictive horizon in adjustment
#: intervals
POLICY_KNOBS = {
    "scale-reactively": {},
    "predictive": {"horizon": 1.0},
    "cpu-threshold": {"high": 0.8, "low": 0.3, "target": 0.6},
    "rate-based": {"headroom": 0.3},
}

POLICIES = tuple(POLICY_KNOBS)


@dataclass
class CompareParams:
    """Scenario knobs for the policy comparison."""

    workload: PrimeTesterParams = field(
        default_factory=lambda: replace(
            STEP_LOAD, peak_rate=350.0, increment_steps=6, step_duration=15.0
        )
    )
    constraint_bound: float = 0.020
    seed: int = 11

    def quick(self) -> "CompareParams":
        """Reduced variant for benchmarks."""
        workload = replace(self.workload, step_duration=8.0, increment_steps=5,
                           peak_rate=300.0)
        return replace(self, workload=workload)


class PolicyOutcome:
    """One policy's run outcome."""

    __slots__ = ("policy", "fulfillment", "task_seconds", "scaling_events", "max_parallelism")

    def __init__(self, policy: str, fulfillment: float, task_seconds: float,
                 scaling_events: int, max_parallelism: int) -> None:
        self.policy = policy
        self.fulfillment = fulfillment
        self.task_seconds = task_seconds
        self.scaling_events = scaling_events
        self.max_parallelism = max_parallelism


class CompareResult:
    """All policies' outcomes."""

    def __init__(self, params: CompareParams) -> None:
        self.params = params
        self.outcomes: Dict[str, PolicyOutcome] = {}

    def report(self) -> str:
        """The comparison table."""
        rows = [
            [
                o.policy,
                f"{o.fulfillment * 100:.1f}%",
                round(o.task_seconds),
                o.scaling_events,
                o.max_parallelism,
            ]
            for o in self.outcomes.values()
        ]
        return format_table(
            [
                "policy",
                f"{self.params.constraint_bound * 1000:.0f}ms constraint fulfilled",
                "task-seconds",
                "scaling events",
                "max p(PT)",
            ],
            rows,
            title="Scaling-policy comparison on the step-load PrimeTester (Sec. VI)",
        )

    def series_csv(self, path: str) -> str:
        """Export the outcomes."""
        return write_csv(
            path,
            ["policy", "fulfillment", "task_seconds", "scaling_events", "max_parallelism"],
            [
                [o.policy, o.fulfillment, o.task_seconds, o.scaling_events, o.max_parallelism]
                for o in self.outcomes.values()
            ],
        )


def run_policy(params: CompareParams, policy_name: str) -> PolicyOutcome:
    """Run the scenario under one policy (built through the registry)."""
    if policy_name not in POLICY_KNOBS:
        raise ValueError(f"unknown policy {policy_name!r}")
    job, _ = run_primetester(
        params.workload,
        EngineConfig.nephele_adaptive(elastic=True, seed=params.seed, **SCALED_CLUSTER),
        bound=params.constraint_bound,
        policy=PolicySpec(policy_name, POLICY_KNOBS[policy_name]),
    )
    # the highest parallelism the policy ever provisioned
    parallelism = peak = job.job_graph.vertex("PrimeTester").parallelism
    for event in job.scaler.events:
        parallelism += event.applied.get("PrimeTester", 0)
        peak = max(peak, parallelism)
    return PolicyOutcome(
        policy_name,
        job.trackers[0].fulfillment_ratio,
        job.engine.resources.task_seconds(),
        len(job.scaler.events),
        peak,
    )


def run(params: Optional[CompareParams] = None) -> CompareResult:
    """Run all four policies."""
    params = params or CompareParams()
    result = CompareResult(params)
    for policy in POLICIES:
        result.outcomes[policy] = run_policy(params, policy)
    return result


#: CLI: ``python -m repro.experiments.compare_policies [--quick] [--csv PATH]``
main = partial(figure_main, "policies")

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
