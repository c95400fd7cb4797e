"""DRS-style resource scheduling over a Jackson queueing network.

DRS (Fu et al., ICDCS 2015 — "DRS: Dynamic Resource Scheduling for
Real-Time Analytics over Fast Streams") models a streaming topology as an
open Jackson network of M/M/c stations and provisions the *minimum total
number of processors* whose predicted end-to-end sojourn time meets the
application's latency requirement. :class:`DrsPolicy` transplants that
idea onto this repo's protocol: per latency constraint it

1. models every measured vertex of the constrained sequence as an
   M/M/c station (Erlang-C waits from :mod:`repro.analysis.queueing` —
   the same machinery :mod:`repro.core.latency_model` builds on),
   with total arrival rate ``Λ_jv = λ_jv · p_jv`` (Jackson's theorem:
   each station sees Poisson arrivals at the aggregate rate);
2. starts every station at its stability floor
   ``c = max(p_min, ⌊Λ·S̄⌋+1)``; and
3. greedily adds one server at a time to the station whose extra server
   shrinks the *total* expected sojourn time ``Σ (W_q(c) + S̄)`` the
   most (ties broken by vertex name, so decisions are deterministic),
   until the total fits the constraint's sojourn budget
   ``target_fraction · ℓ`` or every station is at ``p_max``
   (then the constraint is reported infeasible).

Unlike the paper's ScaleReactively this needs no fitted Kingman
coefficients — it is purely model-driven from the current rate/service
measurements — and it both grows *and shrinks*: the greedy allocation is
recomputed from the floor each round, so over-provisioned stations are
released as soon as the model says the budget still holds.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.analysis.queueing import mmc_waiting_time
from repro.core.constraints import LatencyConstraint
from repro.core.policy import PolicyContext, check_knob, check_staleness, register_policy
from repro.core.scale_reactively import ScalingDecision, apply_migration_gate
from repro.qos.summary import GlobalSummary

#: greedy allocation safety stop (far above any sensible p_max)
_MAX_TOTAL_SERVERS = 100_000


class _Station:
    """One vertex of the constrained sequence as an M/M/c station."""

    __slots__ = ("name", "total_rate", "service_mean", "p_min", "p_max", "servers")

    def __init__(self, name: str, total_rate: float, service_mean: float, p_min: int, p_max: int) -> None:
        self.name = name
        self.total_rate = total_rate
        self.service_mean = service_mean
        self.p_min = p_min
        self.p_max = p_max
        # stability floor: smallest c with Λ·S̄ < c, clamped into bounds
        floor = int(math.floor(total_rate * service_mean)) + 1
        self.servers = max(p_min, min(p_max, max(1, floor)))

    def sojourn(self, servers: Optional[int] = None) -> float:
        """Expected station sojourn ``W_q(c) + S̄`` at ``servers``."""
        c = self.servers if servers is None else servers
        return mmc_waiting_time(self.total_rate, self.service_mean, c) + self.service_mean


class DrsPolicy:
    """Minimum-total-parallelism allocation meeting the latency bound.

    Parameters
    ----------
    constraints:
        The latency constraints to provision for.
    target_fraction:
        Share of each constraint's bound ℓ granted to the modeled
        sojourn time (queue waits + service). Below 1.0 leaves headroom
        for the unmodeled parts of the pipeline (channel latencies,
        batching delays); the default 0.8 mirrors the paper's practice
        of provisioning against a slightly tightened requirement.
    staleness_threshold:
        Refuse to act on measurements older than this many seconds
        (``None`` disables the gate).
    """

    #: registry name (see :mod:`repro.core.policy`)
    name = "drs"

    #: optional :class:`~repro.engine.state.MigrationAdvisor`, attached
    #: by the engine when the job has stateful vertices — enables the
    #: migration-aware gate (see
    #: :func:`~repro.core.scale_reactively.apply_migration_gate`)
    migration_advisor = None

    def __init__(
        self,
        constraints: List[LatencyConstraint],
        target_fraction: float = 0.8,
        staleness_threshold: Optional[float] = 10.0,
    ) -> None:
        self.constraints = list(constraints)
        self.target_fraction = check_knob("target_fraction", target_fraction, high=1.0)
        self.staleness_threshold = check_staleness(staleness_threshold)

    def knobs(self) -> Dict[str, object]:
        """Declared tuning parameters (JSON-serializable, for manifests)."""
        return {
            "target_fraction": self.target_fraction,
            "staleness_threshold": self.staleness_threshold,
        }

    def decide(
        self, summary: GlobalSummary, current_parallelism: Dict[str, int]
    ) -> ScalingDecision:
        """One round: re-solve the Jackson-network allocation per constraint."""
        decision = ScalingDecision()
        for constraint in self.constraints:
            stations, status = self._build_stations(
                constraint, summary, current_parallelism
            )
            if status == "stale":
                decision.skipped_constraints.append(constraint.name)
                decision.stale_constraints.append(constraint.name)
                continue
            if stations is None:
                decision.skipped_constraints.append(constraint.name)
                continue
            budget = self.target_fraction * constraint.bound
            feasible = self._allocate(stations, budget)
            if not feasible:
                decision.infeasible_constraints.append(constraint.name)
            decision.merge_max({s.name: s.servers for s in stations})
        apply_migration_gate(self, decision, summary, current_parallelism)
        return decision

    def _build_stations(
        self,
        constraint: LatencyConstraint,
        summary: GlobalSummary,
        current_parallelism: Dict[str, int],
    ) -> Tuple[Optional[List["_Station"]], str]:
        """The constraint's measured elastic vertices as stations.

        Returns ``(stations, status)`` where status is ``"ok"``,
        ``"stale"`` (some measurement exceeds the threshold) or
        ``"unmeasured"`` (no elastic vertex is measurable yet).
        """
        stations: List[_Station] = []
        for vertex in constraint.sequence.vertices:
            vs = summary.vertex(vertex.name)
            if vs is None:
                continue
            if (
                self.staleness_threshold is not None
                and vs.staleness > self.staleness_threshold
            ):
                return None, "stale"
            if not vertex.elastic or vs.service_mean <= 0:
                continue
            p = max(1, current_parallelism.get(vertex.name, vertex.parallelism))
            stations.append(
                _Station(
                    vertex.name,
                    vs.arrival_rate * p,
                    vs.service_mean,
                    vertex.min_parallelism,
                    vertex.max_parallelism,
                )
            )
        if not stations:
            return None, "unmeasured"
        stations.sort(key=lambda s: s.name)
        return stations, "ok"

    @staticmethod
    def _allocate(stations: List["_Station"], budget: float) -> bool:
        """Greedy marginal-benefit server allocation (DRS Algorithm 1).

        Mutates the stations' ``servers`` in place; returns whether the
        total sojourn time fits the budget.
        """
        spent = sum(s.servers for s in stations)
        while spent < _MAX_TOTAL_SERVERS:
            total = sum(s.sojourn() for s in stations)
            if total <= budget:
                return True
            best = None
            best_gain = 0.0
            for station in stations:
                if station.servers >= station.p_max:
                    continue
                current = station.sojourn()
                # an unstable station (p_max-clamped below Λ·S̄) has an
                # infinite wait; stabilizing it dominates any finite gain
                gain = (
                    math.inf if math.isinf(current)
                    else current - station.sojourn(station.servers + 1)
                )
                # strict > keeps the first (lexicographically smallest)
                # station on ties — deterministic allocation order
                if best is None or gain > best_gain:
                    best = station
                    best_gain = gain
            if best is None:
                return False  # every station at p_max, budget unmet
            best.servers += 1
            spent += 1
        return sum(s.sojourn() for s in stations) <= budget


@register_policy(DrsPolicy.name)
def _build_drs(context: PolicyContext, **knobs) -> DrsPolicy:
    return DrsPolicy(context.constraints, **knobs)
