"""The Elastic Scaler (master-side driver; paper Sec. IV-B and V).

Consumes each adjustment interval's fresh global summary, runs the
attached :class:`~repro.core.policy.ScalingPolicy` (the paper's
ScaleReactively by default — any registered policy plugs in), and issues
the resulting scaling actions to the scheduler. Implements the paper's
post-scale-up *inactivity phase*: after starting new tasks the scaler
stays inactive for a configurable number of adjustment intervals, because
fresh tasks need time to show up in the measurement data (and new
channels initially worsen measured latency). Scale-downs require no
inactivity phase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.policy import PolicyRoundContext, ScalingPolicy
from repro.core.scale_reactively import ScalingDecision
from repro.obs.trace import (
    BRANCH_ACTUATION_PENDING,
    BRANCH_ADMISSION_DENIED,
    BRANCH_COOLDOWN,
    BRANCH_INACTIVE,
    BRANCH_SCALE_DOWN_CLAMPED,
    BRANCH_UNRESOLVABLE,
    TraceRecord,
)
from repro.qos.summary import GlobalSummary
from repro.simulation.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.engine.runtime import RuntimeGraph
    from repro.engine.scheduler import Scheduler


class ScalingEvent:
    """One scaler activation: when, and the per-vertex change it applied."""

    __slots__ = ("time", "applied")

    def __init__(self, time: float, applied: Dict[str, int]) -> None:
        self.time = time
        self.applied = applied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ScalingEvent(t={self.time:.1f}, applied={self.applied})"


class ElasticScaler:
    """Issues scaling actions derived from the latency model."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: "Scheduler",
        runtime: "RuntimeGraph",
        policy: ScalingPolicy,
        adjustment_interval: float = 5.0,
        inactivity_intervals: int = 2,
        recovery_cooldown: float = 15.0,
    ) -> None:
        if isinstance(recovery_cooldown, bool) or not isinstance(
            recovery_cooldown, (int, float)
        ):
            raise TypeError(
                f"recovery_cooldown must be a number (got {recovery_cooldown!r})"
            )
        if math.isnan(recovery_cooldown) or math.isinf(recovery_cooldown):
            raise ValueError(
                f"recovery_cooldown must be finite (got {recovery_cooldown!r})"
            )
        if recovery_cooldown < 0:
            raise ValueError(
                f"recovery_cooldown must be >= 0 (got {recovery_cooldown!r})"
            )
        self.sim = sim
        self.scheduler = scheduler
        self.runtime = runtime
        self.policy = policy
        self.adjustment_interval = adjustment_interval
        self.inactivity_intervals = inactivity_intervals
        #: seconds after a fault / fault recovery during which
        #: scale-downs are suppressed (measurements right after a crash
        #: or dropout under-report load; shrinking on them oscillates)
        self.recovery_cooldown = float(recovery_cooldown)
        self._inactive_until = 0.0
        self._no_scale_down_until = 0.0
        #: log of scaler activations
        self.events: List[ScalingEvent] = []
        #: count of vertices reported as unresolvable bottlenecks
        self.unresolvable = 0
        #: count of summaries skipped due to the inactivity phase
        self.skipped_inactive = 0
        #: count of constraints skipped because their measurements were stale
        self.skipped_stale = 0
        #: count of scale-down targets suppressed by the recovery cooldown
        self.suppressed_scale_downs = 0
        #: scaler rounds observed (every on_global_summary call)
        self.rounds = 0
        #: optional :class:`~repro.obs.trace.DecisionTrace` receiving the
        #: per-round decision records (None = tracing off)
        self.trace_sink = None
        #: optional ReconciliationController; when set, scaling actions
        #: become supervised ActuationRequests instead of synchronous
        #: scheduler calls, and vertices with in-flight actuations are
        #: not re-decided
        self.reconciler = None
        #: count of decision targets suppressed because an actuation for
        #: the vertex was still in flight
        self.suppressed_in_flight = 0

    def _emit(self, records) -> None:
        if self.trace_sink is not None:
            self.trace_sink.extend(records)
            self.trace_sink.rounds = self.rounds

    def _vertex_record(
        self, branch: str, vertex: str, current: Dict[str, int], target: int, detail: str
    ) -> TraceRecord:
        """The trace row of a per-vertex target this round did not apply."""
        return TraceRecord(
            self.sim.now, "*", branch,
            vertex=vertex,
            job=self._job_name(), round=self.rounds,
            p_before=current.get(vertex),
            p_target=target,
            detail=detail,
        )

    def _job_name(self) -> str:
        graph = getattr(self.runtime, "job_graph", None)
        return getattr(graph, "name", "") if graph is not None else ""

    @property
    def policy_name(self) -> str:
        """The attached policy's registry name (type name as fallback)."""
        return getattr(self.policy, "name", type(self.policy).__name__)

    def _observe(self, summary: GlobalSummary, decision: ScalingDecision, applied: Dict[str, int]) -> None:
        """Feed the optional policy ``observe`` hook after an active round."""
        observe = getattr(self.policy, "observe", None)
        if observe is not None:
            observe(PolicyRoundContext(self.sim.now, summary, decision, applied))

    @property
    def inactive(self) -> bool:
        """Whether the scaler is inside a post-scale-up inactivity phase."""
        return self.sim.now < self._inactive_until

    @property
    def in_recovery_cooldown(self) -> bool:
        """Whether scale-downs are currently suppressed after a fault."""
        return self.sim.now < self._no_scale_down_until

    def notify_fault_recovery(self) -> None:
        """Start (or extend) the post-fault cooldown on scale-downs.

        Called by the fault injector both when a fault strikes and when
        it recovers: each notification restarts the cooldown window, so
        scale-downs stay disabled until the system has run fault-free for
        ``recovery_cooldown`` seconds. Scale-ups remain allowed — a crash
        may exactly require extra capacity.
        """
        self._no_scale_down_until = self.sim.now + self.recovery_cooldown

    def on_global_summary(self, summary: GlobalSummary) -> Optional[ScalingDecision]:
        """React to a fresh global summary; returns the decision (or None)."""
        self.rounds += 1
        if self.inactive:
            self.skipped_inactive += 1
            if self.trace_sink is not None:
                self._emit([
                    TraceRecord(
                        self.sim.now, "*", BRANCH_INACTIVE,
                        job=self._job_name(), round=self.rounds,
                        detail="post-scale-up inactivity phase",
                    )
                ])
            return None
        current = {
            name: rv.target_parallelism for name, rv in self.runtime.vertices.items()
        }
        decision = self.policy.decide(summary, current)
        for record in decision.trace:
            record.job = self._job_name()
            record.round = self.rounds
        self.skipped_stale += len(decision.stale_constraints)
        self.unresolvable += len(decision.unresolvable)
        if not decision.has_actions:
            self._emit(decision.trace)
            self._observe(summary, decision, {})
            return decision
        # lazy: repro.engine's package import pulls this module back in
        from repro.engine.resources import InsufficientResourcesError

        extra_records = []
        applied: Dict[str, int] = {}
        scaled_up = False
        cooldown = self.in_recovery_cooldown
        in_flight = (
            set(self.reconciler.in_flight_vertices())
            if self.reconciler is not None
            else ()
        )
        for vertex_name, target in sorted(decision.parallelism.items()):
            if cooldown and target < current.get(vertex_name, target):
                self.suppressed_scale_downs += 1
                extra_records.append(
                    self._vertex_record(
                        BRANCH_COOLDOWN, vertex_name, current, target,
                        "scale-down suppressed by recovery cooldown",
                    )
                )
                continue
            if vertex_name in in_flight:
                self.suppressed_in_flight += 1
                extra_records.append(
                    self._vertex_record(
                        BRANCH_ACTUATION_PENDING, vertex_name, current, target,
                        "decision deferred: actuation in flight",
                    )
                )
                continue
            if self.reconciler is not None:
                delta = self.reconciler.request(
                    vertex_name, target, round=self.rounds
                )
            else:
                try:
                    result = self.scheduler.set_parallelism(vertex_name, target)
                except InsufficientResourcesError:
                    self.unresolvable += 1
                    extra_records.append(
                        self._vertex_record(
                            BRANCH_UNRESOLVABLE, vertex_name, current, target,
                            "insufficient cluster resources",
                        )
                    )
                    continue
                if result.denied:
                    # Admission refused the scale-up (quota or cluster
                    # capacity) — like infeasibility, the guarantee cannot
                    # be met right now; record it instead of failing silently.
                    self.unresolvable += 1
                    extra_records.append(
                        self._vertex_record(
                            BRANCH_ADMISSION_DENIED, vertex_name, current, target,
                            result.reason,
                        )
                    )
                    continue
                if result.requested < 0 and result.applied == 0:
                    extra_records.append(
                        self._vertex_record(
                            BRANCH_SCALE_DOWN_CLAMPED, vertex_name, current, target,
                            "reduction suppressed: no drainable tasks "
                            "(min parallelism / pending additions)",
                        )
                    )
                delta = result.applied
            if delta != 0:
                applied[vertex_name] = delta
            if delta > 0:
                scaled_up = True
        for record in decision.trace:
            if record.vertex in applied:
                record.p_applied = applied[record.vertex]
        self._emit(decision.trace + extra_records)
        self.events.append(ScalingEvent(self.sim.now, applied))
        self._observe(summary, decision, applied)
        if scaled_up:
            # Inactivity counts from when the new tasks actually start.
            self._inactive_until = (
                self.sim.now
                + self.scheduler.startup_delay
                + self.inactivity_intervals * self.adjustment_interval
            )
        return decision
