"""Supervised actuation: asynchronous, failure-prone rescaling.

The scheduler's ``set_parallelism`` is synchronous and infallible; real
actuation is neither. When a job carries an
:class:`~repro.actuation.config.ActuationConfig`, the elastic scaler no
longer applies its decisions directly — it hands each one to the
:class:`ReconciliationController`, which:

* turns it into an :class:`ActuationRequest` whose provisioning delay is
  sampled (deterministically, from the job's ``actuation`` random
  stream) on the simulator heap;
* lets the request fail (an active ``ActuationFailure`` fault window,
  a provisioning sample above ``timeout``, or insufficient cluster
  resources) and retries with exponential backoff + jitter until
  ``max_retries`` is exhausted;
* runs a constraint-violation watchdog that escalates to
  bottleneck-style doubling when reconciliation has lagged a violated
  constraint for ``watchdog_intervals`` consecutive adjustment
  intervals;
* tracks desired / applied / in-flight state per vertex so the scaler
  can suppress re-deciding vertices whose actuation is still pending,
  and exposes the convergence lag (total desired-minus-actual
  parallelism distance) as a gauge.

Request lifecycle invariants:

* at most one live request per vertex — issuing a new request for a
  vertex marks any replaced in-flight request ``superseded``, so stale
  ``_complete`` / ``_retry`` callbacks still on the heap can never apply
  an outdated target over the newer one;
* a *partial* application (``ScalingResult.partial``, e.g. a scale-down
  limited by still-pending additions) does not count as convergence:
  the vertex's desired state is kept, ``convergence_lag()`` keeps
  reporting the distance, and the remainder is re-issued on the next
  adjustment tick.

Every lifecycle step moves a lifetime counter (:meth:`summary`; the
metrics sampler reads them as ``actuation.*``); when tracing is on, the decisive
steps are also emitted as :class:`~repro.obs.trace.TraceRecord` rows
(``actuation-pending`` / ``actuation-failed`` / ``retry-backoff`` /
``watchdog-escalation`` and the migration branches).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from repro.actuation.config import ActuationConfig
from repro.obs.trace import (
    BRANCH_ACTUATION_FAILED,
    BRANCH_ACTUATION_PENDING,
    BRANCH_ADMISSION_DENIED,
    BRANCH_MIGRATION_FAILED,
    BRANCH_MIGRATION_PENDING,
    BRANCH_MIGRATION_ROLLED_BACK,
    BRANCH_RETRY_BACKOFF,
    BRANCH_WATCHDOG_ESCALATION,
    TraceRecord,
)
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams

if TYPE_CHECKING:  # pragma: no cover - avoids a package import cycle
    from repro.engine.runtime import RuntimeGraph
    from repro.engine.scheduler import Scheduler


class ActuationRequest:
    """One in-flight rescaling order (vertex → target parallelism)."""

    __slots__ = (
        "vertex", "target", "p_before", "attempt", "issued_at",
        "round", "superseded", "escalated",
    )

    def __init__(
        self,
        vertex: str,
        target: int,
        p_before: int,
        issued_at: float,
        round: int = 0,
        escalated: bool = False,
    ) -> None:
        self.vertex = vertex
        self.target = target
        self.p_before = p_before
        #: 1-based attempt counter (bumped on every retry)
        self.attempt = 1
        self.issued_at = issued_at
        self.round = round
        #: set when a newer request (scaler re-request or watchdog
        #: escalation) replaced this one — completion/retry no-op
        self.superseded = False
        self.escalated = escalated

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ActuationRequest({self.vertex}: {self.p_before}->{self.target}, "
            f"attempt {self.attempt})"
        )


class ReconciliationController:
    """Converges actual parallelism to desired through unreliable actuation."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: "Scheduler",
        runtime: "RuntimeGraph",
        config: ActuationConfig,
        streams: RandomStreams,
        trace_sink=None,
        job_name: str = "",
    ) -> None:
        self.sim = sim
        self.scheduler = scheduler
        self.runtime = runtime
        self.config = config
        #: deterministic actuation stream, independent of service-time
        #: streams (adding it does not perturb existing stream draws)
        self._rng = streams.get("actuation")
        #: optional DecisionTrace receiving the actuation records
        self.trace_sink = trace_sink
        self.job_name = job_name
        #: set by the engine when the job carries stateful vertices; a
        #: rescale of a stateful vertex then routes through the
        #: multi-phase migration protocol instead of a direct apply
        self.state_manager = None
        #: desired parallelism per vertex (last accepted request target)
        self.desired: Dict[str, int] = {}
        #: in-flight request per vertex (at most one at a time)
        self.in_flight: Dict[str, ActuationRequest] = {}
        # lifetime counters (sampled as ``actuation.*`` metrics)
        self.requests = 0
        self.retries = 0
        self.failures = 0
        self.give_ups = 0
        self.applied = 0
        self.escalations = 0
        self.superseded_requests = 0
        self.partials = 0
        #: scale-ups refused by the cluster's admission controller
        self.admission_denials = 0
        #: vertices whose last success applied less than desired; the
        #: remainder is re-issued on the next adjustment tick
        self._partial_pending: set = set()
        #: consecutive adjustment intervals with a violated constraint
        #: while reconciliation lagged (watchdog trigger state)
        self._lagging_intervals = 0
        # fault windows set by ActuationFailure / ActuationDelay
        # ("*" = all vertices)
        self._fail_until: Dict[str, float] = {}
        self._delay_windows: Dict[str, Tuple[float, float]] = {}
        # migration fault windows set by MigrationFailure ("*" = all)
        self._migrate_fail_until: Dict[str, float] = {}
        #: in-transfer migration plan per vertex — a task crash on the
        #: vertex aborts it so _finish_transfer rolls back instead of
        #: applying a plan computed over pre-crash state
        self._migrating: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------

    def _emit(self, record: TraceRecord) -> None:
        if self.trace_sink is not None:
            self.trace_sink.append(record)

    def _trace(
        self,
        branch: str,
        req: ActuationRequest,
        detail: str,
        p_applied: Optional[int] = None,
        state_bytes: Optional[int] = None,
    ) -> TraceRecord:
        return TraceRecord(
            self.sim.now, "*", branch,
            vertex=req.vertex,
            job=self.job_name,
            round=req.round,
            p_before=req.p_before,
            p_target=req.target,
            p_applied=p_applied,
            attempt=req.attempt,
            detail=detail,
            state_bytes=state_bytes,
        )

    # ------------------------------------------------------------------
    # fault-window hooks (driven by simulation.faults)
    # ------------------------------------------------------------------

    def fail_actuations(self, vertex: Optional[str], until: float) -> None:
        """Make every attempt for ``vertex`` (None = all) fail until ``until``."""
        key = vertex if vertex is not None else "*"
        self._fail_until[key] = max(self._fail_until.get(key, 0.0), until)

    def delay_actuations(self, vertex: Optional[str], factor: float, until: float) -> None:
        """Stretch provisioning delays for ``vertex`` (None = all) until ``until``."""
        key = vertex if vertex is not None else "*"
        self._delay_windows[key] = (factor, until)

    def _fault_active(self, vertex: str) -> bool:
        now = self.sim.now
        return (
            now < self._fail_until.get("*", 0.0)
            or now < self._fail_until.get(vertex, 0.0)
        )

    def fail_migrations(self, vertex: Optional[str], until: float) -> None:
        """Make state transfers for ``vertex`` (None = all) fail until ``until``."""
        key = vertex if vertex is not None else "*"
        self._migrate_fail_until[key] = max(
            self._migrate_fail_until.get(key, 0.0), until
        )

    def _migration_fault_active(self, vertex: str) -> bool:
        now = self.sim.now
        return (
            now < self._migrate_fail_until.get("*", 0.0)
            or now < self._migrate_fail_until.get(vertex, 0.0)
        )

    def abort_migrations(self, vertex: str, reason: str) -> None:
        """Abort an in-transfer migration for ``vertex`` (e.g. task crash).

        The plan was computed over pre-crash state; applying it would
        resurrect lost keys. Marking it aborted makes the pending
        ``_finish_transfer`` roll back instead.
        """
        plan = self._migrating.get(vertex)
        if plan is not None and not plan.aborted:
            plan.aborted = True
            plan.abort_reason = reason

    def _delay_factor(self, vertex: str) -> float:
        now = self.sim.now
        factor = 1.0
        for key in ("*", vertex):
            window = self._delay_windows.get(key)
            if window is not None and now < window[1]:
                factor = max(factor, window[0])
        return factor

    # ------------------------------------------------------------------
    # request intake (called by the elastic scaler)
    # ------------------------------------------------------------------

    def in_flight_vertices(self) -> List[str]:
        """Vertices with a pending actuation (scaler suppresses these)."""
        return sorted(self.in_flight)

    def request(self, vertex: str, target: int, round: int = 0) -> int:
        """Accept a rescaling order for ``vertex``; returns the accepted delta.

        The target is clamped to the vertex bounds before an
        :class:`ActuationRequest` is issued. Returns the signed change the
        request aims for, or 0 when the clamped target is the current one.
        """
        rv = self.runtime.vertex(vertex)
        clamped = rv.job_vertex.clamp(target)
        current = rv.target_parallelism
        if clamped == current:
            self.desired.pop(vertex, None)
            self._partial_pending.discard(vertex)
            return 0
        return self._issue(vertex, clamped, current, round)

    def _issue(
        self,
        vertex: str,
        target: int,
        current: int,
        round: int,
        escalated: bool = False,
    ) -> int:
        req = ActuationRequest(
            vertex, target, current, self.sim.now, round=round, escalated=escalated
        )
        # A replaced in-flight request must be marked superseded before
        # the overwrite: its _complete/_retry callbacks are still on the
        # heap and would otherwise apply an outdated target over this
        # newer one later.
        previous = self.in_flight.get(vertex)
        if previous is not None and not previous.superseded:
            previous.superseded = True
            self.superseded_requests += 1
        self.desired[vertex] = target
        self.in_flight[vertex] = req
        self.requests += 1
        self._emit(self._trace(
            BRANCH_ACTUATION_PENDING, req,
            "escalated actuation issued" if escalated else "actuation issued",
        ))
        self._schedule_attempt(req)
        return target - current

    # ------------------------------------------------------------------
    # attempt lifecycle (simulator callbacks)
    # ------------------------------------------------------------------

    def _schedule_attempt(self, req: ActuationRequest) -> None:
        delay = self.config.provisioning_delay.sample(self._rng)
        delay *= self._delay_factor(req.vertex)
        timed_out = delay > self.config.timeout
        self.sim.schedule(min(delay, self.config.timeout), self._complete, req, timed_out)

    def _complete(self, req: ActuationRequest, timed_out: bool) -> None:
        if req.superseded:
            return
        failure = None
        if timed_out:
            failure = f"timeout after {self.config.timeout}s"
        elif self._fault_active(req.vertex):
            failure = "actuation fault window active"
        if failure is None:
            if (
                self.state_manager is not None
                and self.state_manager.is_stateful(req.vertex)
            ):
                self._begin_migration(req)
                return
            from repro.engine.resources import InsufficientResourcesError

            try:
                result = self.scheduler.set_parallelism(req.vertex, req.target)
            except InsufficientResourcesError:
                failure = "insufficient cluster resources"
            else:
                if result.denied:
                    # Admission denial is a first-class retryable outcome:
                    # nothing was announced, so the request re-enters the
                    # normal retry/backoff path and may succeed once other
                    # jobs release slots.
                    self.admission_denials += 1
                    self._emit(self._trace(BRANCH_ADMISSION_DENIED, req, result.reason))
                    self._fail(req, f"admission denied: {result.reason}")
                    return
                self._succeed(req, result)
                return
        self._fail(req, failure)

    def _succeed(self, req: ActuationRequest, result) -> None:
        self.in_flight.pop(req.vertex, None)
        self.applied += 1
        desired = self.desired.get(req.vertex)
        actual = self.runtime.vertex(req.vertex).target_parallelism
        if result.partial and desired is not None and actual != desired:
            # Partial application (e.g. scale-down limited by pending
            # additions / min_parallelism): convergence is NOT reached.
            # Keep the desired state so convergence_lag() stays honest
            # and re-issue for the remainder on the next adjustment tick.
            self.partials += 1
            self._partial_pending.add(req.vertex)
            return
        self.desired.pop(req.vertex, None)
        self._partial_pending.discard(req.vertex)

    def _fail(self, req: ActuationRequest, reason: str) -> None:
        self.failures += 1
        self._emit(self._trace(BRANCH_ACTUATION_FAILED, req, reason))
        if req.attempt > self.config.max_retries:
            self.give_ups += 1
            self.in_flight.pop(req.vertex, None)
            return
        backoff = min(
            self.config.backoff_max,
            self.config.backoff_base * self.config.backoff_factor ** (req.attempt - 1),
        )
        if self.config.backoff_jitter > 0.0:
            backoff *= 1.0 + self.config.backoff_jitter * (2.0 * self._rng.random() - 1.0)
        req.attempt += 1
        self.retries += 1
        self._emit(self._trace(
            BRANCH_RETRY_BACKOFF, req, f"retry in {backoff:.3f}s",
        ))
        self.sim.schedule(backoff, self._retry, req)

    def _retry(self, req: ActuationRequest) -> None:
        if req.superseded:
            return
        self._schedule_attempt(req)

    # ------------------------------------------------------------------
    # stateful migration protocol (quiesce → snapshot → transfer → restore)
    # ------------------------------------------------------------------

    def _begin_migration(self, req: ActuationRequest) -> None:
        """Start the multi-phase state migration for a stateful rescale.

        The vertex's tasks are paused for the quiesce + snapshot +
        transfer phases (pause scales with moved state bytes); the plan
        is held in ``_migrating`` so a concurrent crash can abort it.
        The rescale itself is applied only at ``_finish_transfer``.
        """
        manager = self.state_manager
        plan = manager.plan_migration(req.vertex, req.target)
        t_quiesce, t_snapshot, t_transfer, t_restore = manager.sample_phase_times(
            req.vertex, plan.moved_bytes
        )
        pause = t_quiesce + t_snapshot + t_transfer
        self._emit(self._trace(
            BRANCH_MIGRATION_PENDING, req,
            f"migrating {plan.moved_bytes} bytes "
            f"(quiesce+snapshot+transfer {pause:.3f}s)",
            state_bytes=plan.moved_bytes,
        ))
        manager.note_migration_pause(req.vertex, pause)
        self._migrating[req.vertex] = plan
        self.sim.schedule(pause, self._finish_transfer, req, plan, t_restore)

    def _finish_transfer(self, req: ActuationRequest, plan, t_restore: float) -> None:
        if self._migrating.get(req.vertex) is plan:
            self._migrating.pop(req.vertex, None)
        if req.superseded:
            # Nothing was applied yet — state layout is untouched, so
            # the newer request simply starts from the same baseline.
            return
        if plan.aborted or self._migration_fault_active(req.vertex):
            reason = plan.abort_reason or "migration fault window active"
            self._rollback_migration(req, plan, t_restore, reason)
            return
        self.state_manager.apply_migration(plan)
        from repro.engine.resources import InsufficientResourcesError

        try:
            result = self.scheduler.set_parallelism(req.vertex, req.target)
        except InsufficientResourcesError:
            result = None
            reason = "insufficient cluster resources"
        if result is not None and result.denied:
            reason = f"admission denied: {result.reason}"
            result = None
            self.admission_denials += 1
            self._emit(self._trace(BRANCH_ADMISSION_DENIED, req, reason))
        if result is None:
            self.state_manager.rollback_migration(plan)
            self._emit(self._trace(
                BRANCH_MIGRATION_ROLLED_BACK, req,
                f"rolled back to p={req.p_before}: {reason}",
                state_bytes=plan.moved_bytes,
            ))
            self._fail(req, reason)
            return
        self.state_manager.complete_migration(plan, t_restore)
        self._succeed(req, result)

    def _rollback_migration(
        self, req: ActuationRequest, plan, t_restore: float, reason: str
    ) -> None:
        """Failed mid-transfer: restore the pre-rescale partitioning.

        Rollback pays the restore cost too (re-installing the snapshot
        on the original tasks), then the request enters the normal
        retry/backoff/give-up path.
        """
        self.state_manager.note_migration_pause(req.vertex, t_restore)
        self.state_manager.rollback_migration(plan)
        self._emit(self._trace(
            BRANCH_MIGRATION_FAILED, req, reason,
            state_bytes=plan.moved_bytes,
        ))
        self._emit(self._trace(
            BRANCH_MIGRATION_ROLLED_BACK, req,
            f"rolled back to p={req.p_before} without state loss",
            state_bytes=plan.moved_bytes,
        ))
        self._fail(req, reason)

    # ------------------------------------------------------------------
    # watchdog (driven from the adjustment tick)
    # ------------------------------------------------------------------

    def _reissue_partials(self) -> None:
        """Re-issue the remainder of partially applied requests.

        Runs once per adjustment tick. A vertex whose last success
        applied less than desired (and that has no newer in-flight
        request) gets a fresh request towards the still-recorded desired
        target — by now previously pending additions may have become
        drainable, so the remainder can complete.
        """
        for vertex in sorted(self._partial_pending):
            if vertex in self.in_flight:
                continue
            desired = self.desired.get(vertex)
            if desired is None:
                self._partial_pending.discard(vertex)
                continue
            current = self.runtime.vertex(vertex).target_parallelism
            if desired == current:
                self.desired.pop(vertex, None)
                self._partial_pending.discard(vertex)
                continue
            self._partial_pending.discard(vertex)
            self._issue(vertex, desired, current, round=0)

    def convergence_lag(self) -> int:
        """Total |desired − actual target| parallelism across vertices."""
        lag = 0
        for vertex, target in self.desired.items():
            lag += abs(target - self.runtime.vertex(vertex).target_parallelism)
        return lag

    def on_adjustment_tick(self, violated: bool) -> None:
        """Per-interval watchdog: escalate when actuation lags a violation.

        Called once per adjustment interval (after the scaler ran) with
        whether any latency constraint is currently violated. When the
        constraint has been violated for ``watchdog_intervals``
        consecutive intervals while reconciliation lagged (desired ≠
        actual), the watchdog supersedes the stuck requests and issues
        bottleneck-style doubling orders.
        """
        self._reissue_partials()
        lag = self.convergence_lag()
        if violated and lag > 0:
            self._lagging_intervals += 1
        else:
            self._lagging_intervals = 0
            return
        if self._lagging_intervals < self.config.watchdog_intervals:
            return
        self._lagging_intervals = 0
        for vertex in sorted(self.desired):
            rv = self.runtime.vertex(vertex)
            current = rv.target_parallelism
            desired = self.desired[vertex]
            if desired <= current:
                continue  # escalation only accelerates scale-ups
            pending = self.in_flight.get(vertex)
            if pending is not None:
                pending.superseded = True
                self.in_flight.pop(vertex, None)
            target = rv.job_vertex.clamp(max(desired, 2 * max(current, 1)))
            self.escalations += 1
            self._emit(TraceRecord(
                self.sim.now, "*", BRANCH_WATCHDOG_ESCALATION,
                vertex=vertex,
                job=self.job_name,
                p_before=current,
                p_target=target,
                detail=(
                    f"reconciliation lagged violated constraint for "
                    f"{self.config.watchdog_intervals} intervals; doubling"
                ),
            ))
            self._issue(vertex, target, current, round=0, escalated=True)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-serializable lifetime summary for manifests/dashboards."""
        summary: Dict[str, object] = {
            "requests": self.requests,
            "retries": self.retries,
            "failures": self.failures,
            "give_ups": self.give_ups,
            "abandoned": self.give_ups,
            "applied": self.applied,
            "escalations": self.escalations,
            "superseded": self.superseded_requests,
            "partials": self.partials,
            "in_flight": len(self.in_flight),
            "convergence_lag": self.convergence_lag(),
            "config": self.config.describe(),
        }
        if self.state_manager is not None:
            summary["migrations"] = {
                "started": self.state_manager.migrations_started,
                "applied": self.state_manager.migrations_completed,
                "rolled_back": self.state_manager.migrations_rolled_back,
            }
        summary["admission_denials"] = self.admission_denials
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReconciliationController({self.requests} requests, "
            f"{self.retries} retries, {len(self.in_flight)} in flight)"
        )
