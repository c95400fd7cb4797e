"""ScaleReactively — Algorithm 2 (paper Sec. IV-F).

The per-adjustment-interval driver: for every latency constraint it
either applies ResolveBottlenecks (when the sequence has a bottleneck) or
Rebalance with the queue-wait budget

    Ŵ_js = w_fraction · (ℓ − Σ_{jv ∈ V(js)} l_jv),

where ``w_fraction`` defaults to the paper's 20 % (the remaining 80 % of
the slack is reserved for adaptive output batching). Parallelism choices
from multiple constraints are merged with an element-wise maximum, and
``P_min`` forwards earlier choices into later Rebalance invocations so
they are never undercut.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.bottlenecks import find_bottlenecks, resolve_bottlenecks
from repro.core.constraints import LatencyConstraint
from repro.core.latency_model import build_sequence_model
from repro.core.policy import PolicyContext, check_knob, check_staleness, register_policy
from repro.core.rebalance import rebalance
from repro.obs.trace import (
    BRANCH_BOTTLENECK,
    BRANCH_INFEASIBLE,
    BRANCH_NO_MODEL_SKIP,
    BRANCH_REBALANCE,
    BRANCH_STALE_SKIP,
    BRANCH_UNRESOLVABLE,
    TraceRecord,
)
from repro.qos.summary import GlobalSummary


class ScalingDecision:
    """Result of one ScaleReactively evaluation."""

    def __init__(self) -> None:
        #: merged target parallelism per vertex name
        self.parallelism: Dict[str, int] = {}
        #: constraints handled via ResolveBottlenecks this round
        self.bottleneck_constraints: List[str] = []
        #: constraints whose budget is unattainable even at max scale-out
        self.infeasible_constraints: List[str] = []
        #: bottleneck vertices that could not be scaled out further
        self.unresolvable: List[str] = []
        #: constraints skipped for lack of measurements
        self.skipped_constraints: List[str] = []
        #: subset of ``skipped_constraints`` skipped because their
        #: measurements were stale (measurement dropout in progress)
        self.stale_constraints: List[str] = []
        #: structured per-constraint/per-vertex decision records
        #: (:class:`~repro.obs.trace.TraceRecord`); always populated — the
        #: scaler only *stores* them when a trace sink is attached
        self.trace: List[TraceRecord] = []

    @property
    def has_actions(self) -> bool:
        """Whether any parallelism target was produced."""
        return bool(self.parallelism)

    def merge_max(self, targets: Dict[str, int]) -> None:
        """Merge targets with element-wise max (Algorithm 2, line 10)."""
        for name, p in targets.items():
            self.parallelism[name] = max(self.parallelism.get(name, 0), p)

    def __repr__(self) -> str:
        return (
            f"ScalingDecision({self.parallelism}, "
            f"bottlenecks={self.bottleneck_constraints}, "
            f"infeasible={self.infeasible_constraints})"
        )


class ScaleReactivelyPolicy:
    """Algorithm 2 over a fixed set of latency constraints."""

    #: registry name (see :mod:`repro.core.policy`)
    name = "scale-reactively"

    def __init__(
        self,
        constraints: List[LatencyConstraint],
        w_fraction: float = 0.2,
        rho_max: float = 0.9,
        e_bounds: Tuple[float, float] = (0.05, 200.0),
        staleness_threshold: Optional[float] = 10.0,
    ) -> None:
        if not (isinstance(e_bounds, (tuple, list)) and len(e_bounds) == 2):
            raise ValueError(f"e_bounds must be a (lo, hi) pair (got {e_bounds!r})")
        lo = check_knob("e_bounds lo", e_bounds[0])
        hi = check_knob("e_bounds hi", e_bounds[1], low=lo, low_closed=True)
        self.constraints = list(constraints)
        self.w_fraction = check_knob("w_fraction", w_fraction, high=1.0)
        self.rho_max = check_knob("rho_max", rho_max, high=1.0)
        self.e_bounds = (lo, hi)
        #: refuse to act on measurements older than this many seconds
        #: (None disables the gate)
        self.staleness_threshold = check_staleness(staleness_threshold)

    def knobs(self) -> Dict[str, object]:
        """Declared tuning parameters (JSON-serializable, for manifests)."""
        return {
            "w_fraction": self.w_fraction,
            "rho_max": self.rho_max,
            "e_bounds": list(self.e_bounds),
            "staleness_threshold": self.staleness_threshold,
        }

    def decide(
        self,
        summary: GlobalSummary,
        current_parallelism: Dict[str, int],
    ) -> ScalingDecision:
        """Evaluate all constraints against a fresh global summary.

        ``current_parallelism`` maps vertex names to their effective
        degrees of parallelism (the scaler passes target parallelism so
        pending scale-ups are not re-issued).
        """
        decision = ScalingDecision()
        time = summary.timestamp
        for constraint in self.constraints:
            sequence = constraint.sequence
            if self._is_stale(sequence, summary):
                # Degradation path: during a measurement dropout the
                # windows hold pre-outage data — rebalancing on it would
                # chase a workload that may no longer exist. Skip the
                # constraint until fresh measurements arrive.
                decision.skipped_constraints.append(constraint.name)
                decision.stale_constraints.append(constraint.name)
                decision.trace.append(
                    TraceRecord(
                        time, constraint.name, BRANCH_STALE_SKIP,
                        detail="measurements exceed staleness threshold",
                    )
                )
                continue
            bottlenecks = find_bottlenecks(sequence, summary, self.rho_max)
            if bottlenecks:
                targets, unresolvable = resolve_bottlenecks(
                    sequence, summary, current_parallelism, self.rho_max
                )
                decision.bottleneck_constraints.append(constraint.name)
                decision.unresolvable.extend(unresolvable)
                decision.merge_max(targets)
                for name, target in targets.items():
                    vs = summary.vertex(name)
                    decision.trace.append(
                        TraceRecord(
                            time, constraint.name, BRANCH_BOTTLENECK,
                            vertex=name,
                            utilization=vs.utilization if vs is not None else None,
                            p_before=current_parallelism.get(name),
                            p_target=target,
                            detail="Eq. 10 doubling",
                        )
                    )
                for name in unresolvable:
                    vs = summary.vertex(name)
                    decision.trace.append(
                        TraceRecord(
                            time, constraint.name, BRANCH_UNRESOLVABLE,
                            vertex=name,
                            utilization=vs.utilization if vs is not None else None,
                            p_before=current_parallelism.get(name),
                            detail="bottleneck cannot scale out further",
                        )
                    )
                continue
            model = build_sequence_model(
                sequence, summary, current_parallelism, self.e_bounds
            )
            if model is None:
                decision.skipped_constraints.append(constraint.name)
                decision.trace.append(
                    TraceRecord(
                        time, constraint.name, BRANCH_NO_MODEL_SKIP,
                        detail="missing measurements for latency model",
                    )
                )
                continue
            budget = self.w_fraction * (constraint.bound - constraint.task_latency_sum(summary))
            if budget <= 0:
                # Task latencies alone exceed the bound: scaling queue
                # waits to zero cannot save this constraint. Best effort:
                # maximum scale-out on its scalable vertices.
                decision.infeasible_constraints.append(constraint.name)
                decision.merge_max({m.name: m.p_max for m in model.scalable_models()})
                for m in model.scalable_models():
                    decision.trace.append(
                        TraceRecord(
                            time, constraint.name, BRANCH_INFEASIBLE,
                            vertex=m.name,
                            budget=budget,
                            measured_wait=m.waiting_time(m.p_current),
                            e=m.e,
                            utilization=m.utilization_at(m.p_current),
                            p_before=m.p_current,
                            p_target=m.p_max,
                            detail="task latencies alone exceed the bound",
                        )
                    )
                continue
            p_min = {
                name: p
                for name, p in decision.parallelism.items()
                if name in set(sequence.vertex_names())
            }
            result = rebalance(model, budget, p_min)
            if not result.feasible:
                decision.infeasible_constraints.append(constraint.name)
            decision.merge_max(result.parallelism)
            branch = BRANCH_REBALANCE if result.feasible else BRANCH_INFEASIBLE
            for m in model.models:
                p_target = result.parallelism.get(m.name, m.p_current)
                decision.trace.append(
                    TraceRecord(
                        time, constraint.name, branch,
                        vertex=m.name,
                        budget=budget,
                        measured_wait=m.waiting_time(m.p_current),
                        predicted_wait=m.waiting_time(p_target),
                        e=m.e,
                        utilization=m.utilization_at(m.p_current),
                        utilization_at_target=m.utilization_at(p_target),
                        p_before=m.p_current,
                        p_target=p_target,
                        detail="" if m.scalable else "fixed",
                    )
                )
        return decision

    def _is_stale(self, sequence, summary: GlobalSummary) -> bool:
        """Whether any measured vertex of the sequence exceeds the threshold."""
        if self.staleness_threshold is None:
            return False
        for name in sequence.vertex_names():
            vs = summary.vertex(name)
            if vs is not None and vs.staleness > self.staleness_threshold:
                return True
        return False


@register_policy(ScaleReactivelyPolicy.name)
def _build_scale_reactively(context: PolicyContext, **knobs) -> ScaleReactivelyPolicy:
    return ScaleReactivelyPolicy(context.constraints, **knobs)
