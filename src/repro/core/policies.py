"""Baseline scaling policies from the paper's related work (Sec. VI).

The paper positions its latency-constraint-driven strategy against
systems whose policies are *utilization-* or *rate-based*:

* SEEP / MillWheel "prevent overload by scaling out when tasks cross a
  CPU utilization threshold" — :class:`CpuThresholdPolicy`;
* Sattler & Beier propose rate-based elasticity — :class:`RateBasedPolicy`.

Both satisfy the formal :class:`~repro.core.policy.ScalingPolicy`
protocol, so they plug into the
:class:`~repro.core.elastic_scaler.ElasticScaler` unchanged and are
constructible by name through the policy registry (``cpu-threshold``,
``rate``). The benchmark suite compares them against the paper's policy:
they prevent bottlenecks but — exactly as the paper argues — do not
control *latency*, because "which particular stream rates or CPU load
thresholds lead to a particular latency ... is not in the scope of these
policies".
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from repro.core.policy import PolicyContext, check_knob, check_staleness, register_policy
from repro.core.scale_reactively import ScalingDecision
from repro.graphs.job_graph import JobVertex
from repro.qos.summary import GlobalSummary, VertexSummary


def _is_stale(vs: VertexSummary, threshold: Optional[float]) -> bool:
    """Whether a vertex's measurements exceed the staleness threshold."""
    return threshold is not None and vs.staleness > threshold


class CpuThresholdPolicy:
    """Scale out above a utilization threshold, in below a low-water mark.

    Parameters
    ----------
    vertices:
        The elastic job vertices this policy manages.
    high / low:
        Per-task utilization thresholds: above ``high`` the vertex is
        scaled so projected utilization returns to ``target``; below
        ``low`` it is shrunk towards ``target``.
    target:
        Desired post-action utilization.
    staleness_threshold:
        Refuse to act on measurements older than this many seconds
        (``None``, the default, disables the gate — threshold policies
        historically acted on whatever the windows held).
    """

    #: registry name (see :mod:`repro.core.policy`)
    name = "cpu-threshold"

    def __init__(
        self,
        vertices: Iterable[JobVertex],
        high: float = 0.8,
        low: float = 0.3,
        target: float = 0.6,
        staleness_threshold: Optional[float] = None,
    ) -> None:
        for knob, value in (("high", high), ("low", low), ("target", target)):
            check_knob(knob, value, high=1.0)
        if not low < target < high:
            raise ValueError("need 0 < low < target < high <= 1")
        self.vertices = list(vertices)
        self.high = high
        self.low = low
        self.target = target
        self.staleness_threshold = check_staleness(staleness_threshold)

    def knobs(self) -> Dict[str, object]:
        """Declared tuning parameters (JSON-serializable, for manifests)."""
        return {
            "high": self.high,
            "low": self.low,
            "target": self.target,
            "staleness_threshold": self.staleness_threshold,
        }

    def decide(self, summary: GlobalSummary, current_parallelism: Dict[str, int]) -> ScalingDecision:
        """One reactive round: threshold comparison per managed vertex."""
        decision = ScalingDecision()
        for vertex in self.vertices:
            vs = summary.vertex(vertex.name)
            if vs is None:
                decision.skipped_constraints.append(vertex.name)
                continue
            if _is_stale(vs, self.staleness_threshold):
                decision.skipped_constraints.append(vertex.name)
                decision.stale_constraints.append(vertex.name)
                continue
            p = max(1, current_parallelism.get(vertex.name, vertex.parallelism))
            rho = vs.utilization
            if rho >= self.high or rho <= self.low:
                # busy servers = rho * p; resize so each runs at `target`
                busy = rho * p
                desired = max(1, math.ceil(busy / self.target))
                decision.merge_max({vertex.name: vertex.clamp(desired)})
        return decision


class RateBasedPolicy:
    """Provision for the measured input rate plus fixed headroom.

    ``p* = ceil(λ_total · S̄ · (1 + headroom))`` — a feed-forward sizing
    rule on rates alone (no latency feedback), representative of
    rate-driven elasticity (e.g. Sattler & Beier [13]).
    """

    #: registry name (aliased as ``rate-based``)
    name = "rate"

    def __init__(
        self,
        vertices: Iterable[JobVertex],
        headroom: float = 0.3,
        staleness_threshold: Optional[float] = None,
    ) -> None:
        self.vertices = list(vertices)
        self.headroom = check_knob("headroom", headroom, low_closed=True)
        self.staleness_threshold = check_staleness(staleness_threshold)

    def knobs(self) -> Dict[str, object]:
        """Declared tuning parameters (JSON-serializable, for manifests)."""
        return {
            "headroom": self.headroom,
            "staleness_threshold": self.staleness_threshold,
        }

    def decide(self, summary: GlobalSummary, current_parallelism: Dict[str, int]) -> ScalingDecision:
        """One reactive round: rate-proportional sizing per vertex."""
        decision = ScalingDecision()
        for vertex in self.vertices:
            vs = summary.vertex(vertex.name)
            if vs is None:
                decision.skipped_constraints.append(vertex.name)
                continue
            if _is_stale(vs, self.staleness_threshold):
                decision.skipped_constraints.append(vertex.name)
                decision.stale_constraints.append(vertex.name)
                continue
            p = max(1, current_parallelism.get(vertex.name, vertex.parallelism))
            total_rate = vs.arrival_rate * p
            busy = total_rate * vs.service_mean
            desired = max(1, math.ceil(busy * (1.0 + self.headroom)))
            decision.merge_max({vertex.name: vertex.clamp(desired)})
        return decision


class StaticPolicy:
    """Never scales — the unelastic null policy (for experiments)."""

    #: registry name (see :mod:`repro.core.policy`)
    name = "static"

    def knobs(self) -> Dict[str, object]:
        """No tuning parameters."""
        return {}

    def decide(self, summary: GlobalSummary, current_parallelism: Dict[str, int]) -> ScalingDecision:
        """Always returns an empty decision."""
        return ScalingDecision()


@register_policy(CpuThresholdPolicy.name)
def _build_cpu_threshold(context: PolicyContext, **knobs) -> CpuThresholdPolicy:
    return CpuThresholdPolicy(context.vertices, **knobs)


@register_policy(RateBasedPolicy.name, "rate-based")
def _build_rate_based(context: PolicyContext, **knobs) -> RateBasedPolicy:
    return RateBasedPolicy(context.vertices, **knobs)


@register_policy(StaticPolicy.name)
def _build_static(context: PolicyContext, **knobs) -> StaticPolicy:
    return StaticPolicy(**knobs)
