"""Daedalus-style self-adaptive horizontal autoscaling.

Daedalus (see PAPERS.md) sizes streaming operators *self-adaptively*
from observed rate/capacity profiles: each operator's required
parallelism is derived from the measured total load and a target
per-replica utilization, so the topology runs resource-efficiently
instead of over-provisioned. :class:`DaedalusPolicy` adapts that idea to
this repo's protocol:

* the per-vertex *busy mass* ``Λ · S̄`` (total busy replicas) is
  tracked with an exponentially weighted moving average — the observed
  profile — and the target size is ``⌈ewma / target_utilization⌉``;
* a **hysteresis band** suppresses scale-downs within ``tolerance`` of
  the current size, so measurement jitter does not oscillate the
  topology (scale-ups always pass: under-provisioning costs latency);
* after any applied action the policy holds further *scale-downs* for
  ``stabilization_rounds`` adjustment intervals (tracked through the
  protocol's optional ``observe`` hook), mirroring the stabilization
  windows of production horizontal autoscalers.

The policy is deliberately latency-blind: like the utilization/rate
baselines it demonstrates the paper's point that efficiency-targeting
autoscalers do not *control* latency — the tournament scoreboard makes
that visible against ScaleReactively and DRS.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.core.policy import (
    PolicyContext, PolicyRoundContext, check_knob, check_staleness, register_policy,
)
from repro.core.scale_reactively import ScalingDecision
from repro.graphs.job_graph import JobVertex
from repro.qos.summary import GlobalSummary


class DaedalusPolicy:
    """Target-utilization sizing from EWMA-smoothed load profiles.

    Parameters
    ----------
    vertices:
        The elastic job vertices this policy manages.
    target_utilization:
        Desired steady-state per-replica utilization (the efficiency
        target).
    tolerance:
        Hysteresis band: a scale-down is only issued when the required
        size is at least ``tolerance`` (relative) below the current one.
    smoothing:
        EWMA weight of the newest busy-mass observation (1.0 = no
        smoothing, react to the raw measurement).
    stabilization_rounds:
        Number of adjustment intervals after an applied action during
        which further scale-downs of that vertex are held back.
    staleness_threshold:
        Refuse to act on measurements older than this many seconds
        (``None`` disables the gate).
    """

    #: registry name (see :mod:`repro.core.policy`)
    name = "daedalus"

    def __init__(
        self,
        vertices: Iterable[JobVertex],
        target_utilization: float = 0.7,
        tolerance: float = 0.15,
        smoothing: float = 0.5,
        stabilization_rounds: int = 2,
        staleness_threshold: Optional[float] = 10.0,
    ) -> None:
        self.vertices = list(vertices)
        self.target_utilization = check_knob("target_utilization", target_utilization, high=1.0)
        self.tolerance = check_knob(
            "tolerance", tolerance, high=1.0, low_closed=True, high_closed=False
        )
        self.smoothing = check_knob("smoothing", smoothing, high=1.0)
        self.stabilization_rounds = int(
            check_knob("stabilization_rounds", stabilization_rounds, low_closed=True)
        )
        self.staleness_threshold = check_staleness(staleness_threshold)
        #: EWMA of each vertex's busy mass Λ·S̄ (the observed profile)
        self._profile: Dict[str, float] = {}
        #: rounds left before a vertex may scale down again
        self._hold: Dict[str, int] = {}

    def knobs(self) -> Dict[str, object]:
        """Declared tuning parameters (JSON-serializable, for manifests)."""
        return {
            "target_utilization": self.target_utilization,
            "tolerance": self.tolerance,
            "smoothing": self.smoothing,
            "stabilization_rounds": self.stabilization_rounds,
            "staleness_threshold": self.staleness_threshold,
        }

    def decide(
        self, summary: GlobalSummary, current_parallelism: Dict[str, int]
    ) -> ScalingDecision:
        """One adaptive round: EWMA update, then banded target sizing."""
        decision = ScalingDecision()
        for vertex in self.vertices:
            vs = summary.vertex(vertex.name)
            if vs is None:
                decision.skipped_constraints.append(vertex.name)
                continue
            if (
                self.staleness_threshold is not None
                and vs.staleness > self.staleness_threshold
            ):
                decision.skipped_constraints.append(vertex.name)
                decision.stale_constraints.append(vertex.name)
                continue
            p = max(1, current_parallelism.get(vertex.name, vertex.parallelism))
            busy = vs.arrival_rate * p * vs.service_mean
            previous = self._profile.get(vertex.name)
            ewma = (
                busy if previous is None
                else self.smoothing * busy + (1.0 - self.smoothing) * previous
            )
            self._profile[vertex.name] = ewma
            if ewma <= 0.0:
                required = vertex.min_parallelism
            else:
                required = vertex.clamp(
                    max(1, math.ceil(ewma / self.target_utilization))
                )
            if required > p:
                decision.merge_max({vertex.name: required})
            elif required < p:
                if self._hold.get(vertex.name, 0) > 0:
                    continue  # stabilization window: hold the scale-down
                if required <= p * (1.0 - self.tolerance):
                    decision.merge_max({vertex.name: required})
        return decision

    def observe(self, ctx: PolicyRoundContext) -> None:
        """Protocol hook: advance stabilization windows from applied actions."""
        for name in list(self._hold):
            remaining = self._hold[name] - 1
            if remaining <= 0:
                del self._hold[name]
            else:
                self._hold[name] = remaining
        if self.stabilization_rounds:
            for name, delta in ctx.applied.items():
                if delta != 0:
                    self._hold[name] = self.stabilization_rounds
        return None


@register_policy(DaedalusPolicy.name)
def _build_daedalus(context: PolicyContext, **knobs) -> DaedalusPolicy:
    return DaedalusPolicy(context.vertices, **knobs)
