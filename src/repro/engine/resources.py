"""Cluster resource management: leasing workers, admission and accounting.

The paper's Nephele scheduler "interfaces with Nephele's own resource
manager that leases and releases worker nodes as required"; this module
plays that role. It also keeps the resource-consumption metrics the
evaluation reports: *task hours* (integral of running tasks over time)
and *worker hours* (integral of leased workers over time).

Beyond the paper's single job, the manager is the shared cluster's
admission controller (see :mod:`repro.engine.admission`): jobs register
a :class:`~repro.engine.admission.JobAccount` (fair-share weight), every
scale-up *reserves* its slots synchronously through
:meth:`request_slots` before any task is announced, and a request the
pool cannot cover is either satisfied by preempting reducible tasks of
jobs over their weighted fair share or denied on the spot. Reservations
make deferred scale-ups safe by construction: the slots a granted
request will consume ``startup_delay`` later are already held, so
materialization can never fail on a contended pool.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.engine.admission import AdmissionDecision, JobAccount, fair_share_victims
from repro.engine.worker import WorkerNode
from repro.simulation.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.task import RuntimeTask


class InsufficientResourcesError(RuntimeError):
    """Raised when the worker pool cannot satisfy a slot request.

    The paper's prescription for this case (Sec. IV-E) is to inform the
    user; the elastic scaler catches this error and records an
    "unresolvable" event instead of crashing the job.
    """


class ResourceManager:
    """Leases workers from a bounded pool and accounts usage over time.

    A new task lands on the first leased worker with a free slot, so the
    pool leases as few workers (and worker-hours) as it can. Operator
    placement is orthogonal to the paper's strategy (Sec. VI), and a
    channel costs the same within and across workers, so where a task
    lands moves no latency.

    A reservation request the free slots cannot cover preempts jobs over
    their weighted fair share (see :mod:`repro.engine.admission`); a job
    alone on the pool never preempts.
    """

    def __init__(
        self,
        sim: Simulator,
        pool_size: int = 130,
        slots_per_worker: int = 4,
    ) -> None:
        if pool_size < 1 or slots_per_worker < 1:
            raise ValueError("pool_size and slots_per_worker must be >= 1")
        self.sim = sim
        self.pool_size = pool_size
        self.slots_per_worker = slots_per_worker
        self._workers: List[WorkerNode] = []
        self._task_worker: Dict[int, WorkerNode] = {}
        self._next_worker_id = 0
        #: released worker ids, reused lowest-first so a worker's id is a
        #: stable pool index rather than a function of lease history —
        #: same-seed runs agree regardless of the order slots were
        #: released in
        self._free_worker_ids: List[int] = []
        # usage integrals
        self._task_seconds = 0.0
        self._worker_seconds = 0.0
        self._last_change = 0.0
        self._active_tasks = 0
        # --- admission control -------------------------------------------
        #: job accounts by job id (None = the anonymous default account
        #: used by schedulers that never registered a job)
        self._accounts: Dict[object, JobAccount] = {}
        self._task_job: Dict[int, object] = {}
        #: outstanding reserved slots across all accounts
        self._reserved_total = 0

    # ------------------------------------------------------------------
    # capacity arithmetic
    # ------------------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Slot capacity of the whole pool."""
        return self.pool_size * self.slots_per_worker

    @property
    def leased_workers(self) -> int:
        """Currently leased (non-empty or reserved) workers."""
        return len(self._workers)

    @property
    def active_tasks(self) -> int:
        """Tasks currently holding a slot."""
        return self._active_tasks

    @property
    def admission_denials(self) -> int:
        """Lifetime denied requests, summed over the job accounts."""
        return sum(a.denials for a in self._accounts.values())

    @property
    def preempted_tasks(self) -> int:
        """Lifetime preempted tasks, summed over the job accounts."""
        return sum(a.preemptions_suffered for a in self._accounts.values())

    def free_slots_available(self) -> int:
        """Physically free slots (ignores reservations).

        This is raw capacity; a new *request* can only take
        :meth:`allocatable_slots`, which subtracts slots already promised
        to granted scale-ups that have not materialized yet.
        """
        free = sum(w.free_slots for w in self._workers)
        free += (self.pool_size - len(self._workers)) * self.slots_per_worker
        return free

    def allocatable_slots(self) -> int:
        """Slots a new request could actually be granted right now."""
        return max(0, self.free_slots_available() - self._reserved_total)

    def _advance_clock(self) -> None:
        """Commit the usage integrals up to now (a slot changes hands)."""
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            self._task_seconds += self._active_tasks * elapsed
            self._worker_seconds += len(self._workers) * elapsed
            for account in self._accounts.values():
                if account.held:
                    account.task_seconds += account.held * elapsed
            self._last_change = now

    # ------------------------------------------------------------------
    # job accounts (shared-cluster multi-tenancy)
    # ------------------------------------------------------------------

    def register_job(self, job_id: object, name: str, weight: float = 1.0) -> JobAccount:
        """Open a slot account for a job with its fair-share weight."""
        if job_id in self._accounts:
            raise ValueError(f"job {job_id!r} is already registered")
        account = JobAccount(job_id, name, weight=weight)
        self._accounts[job_id] = account
        return account

    def account(self, job_id: object) -> Optional[JobAccount]:
        """The registered account of a job (None if unregistered)."""
        return self._accounts.get(job_id)

    def _account_for(self, job_id: object) -> JobAccount:
        account = self._accounts.get(job_id)
        if account is None:
            # Anonymous default account: direct ResourceManager users and
            # pre-multi-tenancy call sites share one default account.
            account = JobAccount(job_id, name=str(job_id) if job_id is not None else "default")
            self._accounts[job_id] = account
        return account

    def set_preemption_hook(
        self, job_id: object, hook: Callable[[int, str], int]
    ) -> None:
        """Install the job's ``(slots, requester) -> freed`` force-stop hook."""
        self._account_for(job_id).preempt_hook = hook

    def job_summaries(self) -> Dict[str, dict]:
        """Deterministic per-job account snapshots (registered jobs only)."""
        elapsed = self.sim.now - self._last_change
        out: Dict[str, dict] = {}
        for job_id in sorted(self._accounts, key=str):
            account = self._accounts[job_id]
            out[account.name] = account.summary(elapsed)
        return out

    # ------------------------------------------------------------------
    # admission (reserve at request time)
    # ------------------------------------------------------------------

    def request_slots(self, job_id: object, count: int) -> AdmissionDecision:
        """Reserve ``count`` slots for a job's scale-up, or deny it.

        The decision is synchronous and final: an admitted request holds
        its slots until :meth:`allocate_slot` consumes them (or
        :meth:`cancel_reservation` returns them), so the deferred
        materialization can never fail. A request the free pool cannot
        cover may free slots by preempting the reducible tasks of jobs
        over their fair share; whatever still falls short is denied.
        """
        if count <= 0:
            return AdmissionDecision(True)
        account = self._account_for(job_id)
        shortfall = count - self.allocatable_slots()
        preempted: List[tuple] = []
        if shortfall > 0:
            freed = self._arbitrate(account, shortfall, preempted)
            shortfall -= freed
        if shortfall > 0:
            account.denials += 1
            return AdmissionDecision(
                False,
                f"insufficient cluster capacity: need {count}, "
                f"allocatable {self.allocatable_slots()}",
                tuple(preempted),
            )
        account.reserved += count
        self._reserved_total += count
        return AdmissionDecision(True, preempted=tuple(preempted))

    def _arbitrate(
        self, requester: JobAccount, shortfall: int, preempted: List[tuple]
    ) -> int:
        """Free up to ``shortfall`` slots by preempting eligible victims."""
        accounts = [self._accounts[k] for k in sorted(self._accounts, key=str)]
        victims = fair_share_victims(accounts, requester, self.total_slots)
        freed_total = 0
        for victim in victims:
            if freed_total >= shortfall:
                break
            if victim.preempt_hook is None:
                continue
            freed = victim.preempt_hook(shortfall - freed_total, requester.name)
            if freed > 0:
                victim.preemptions_suffered += freed
                requester.preemptions_inflicted += freed
                freed_total += freed
                preempted.append((victim.name, freed))
        return freed_total

    def cancel_reservation(self, job_id: object, count: int) -> None:
        """Return ``count`` unused reserved slots (aborted scale-up)."""
        if count <= 0:
            return
        account = self._account_for(job_id)
        returned = min(count, account.reserved)
        account.reserved -= returned
        self._reserved_total -= returned

    # ------------------------------------------------------------------
    # slot allocation
    # ------------------------------------------------------------------

    def allocate_slot(self, task: "RuntimeTask", job_id: object = None) -> WorkerNode:
        """Place ``task`` on a worker, leasing a new one if needed.

        When the job holds a reservation (granted scale-up), one reserved
        slot is consumed; otherwise this is a direct allocation (initial
        deployment) that raises :class:`InsufficientResourcesError` on an
        exhausted pool.
        """
        self._advance_clock()
        account = self._account_for(job_id)
        worker = self._find_free_worker()
        if worker is None:
            if len(self._workers) >= self.pool_size:
                raise InsufficientResourcesError(
                    f"worker pool exhausted ({self.pool_size} workers, "
                    f"{self.total_slots} slots)"
                )
            worker = self._lease_worker()
        worker.assign(task)
        self._task_worker[task.uid] = worker
        self._task_job[task.uid] = job_id
        self._active_tasks += 1
        account.held += 1
        if account.reserved > 0:
            account.reserved -= 1
            self._reserved_total -= 1
        return worker

    def _lease_worker(self) -> WorkerNode:
        if self._free_worker_ids:
            worker_id = heapq.heappop(self._free_worker_ids)
        else:
            worker_id = self._next_worker_id
            self._next_worker_id += 1
        worker = WorkerNode(worker_id, self.slots_per_worker)
        self._workers.append(worker)
        return worker

    def leased_worker_list(self) -> List[WorkerNode]:
        """Snapshot of the currently leased workers (lease order)."""
        return list(self._workers)

    def worker_of(self, task: "RuntimeTask") -> Optional[WorkerNode]:
        """The worker hosting ``task`` (``None`` if it holds no slot)."""
        return self._task_worker.get(task.uid)

    def _find_free_worker(self) -> Optional[WorkerNode]:
        """The first leased worker with a free slot (None: lease one)."""
        for worker in self._workers:
            if worker.free_slots > 0:
                return worker
        return None

    def release_slot(self, task: "RuntimeTask") -> None:
        """Free the slot held by ``task``; empty workers are released."""
        self._advance_clock()
        worker = self._task_worker.pop(task.uid, None)
        if worker is None:
            raise KeyError(f"task {task.task_id} holds no slot")
        worker.release(task)
        self._active_tasks -= 1
        job_id = self._task_job.pop(task.uid, None)
        account = self._accounts.get(job_id)
        if account is not None and account.held > 0:
            account.held -= 1
        if worker.is_empty:
            self._workers.remove(worker)
            heapq.heappush(self._free_worker_ids, worker.worker_id)

    # ------------------------------------------------------------------
    # usage metrics (pure reads: the committed integral plus the tail)
    # ------------------------------------------------------------------

    def task_hours(self) -> float:
        """Task-hours consumed so far (paper's resource metric, Fig. 6)."""
        return self.task_seconds() / 3600.0

    def worker_hours(self) -> float:
        """Worker-hours consumed so far."""
        elapsed = self.sim.now - self._last_change
        return (self._worker_seconds + len(self._workers) * elapsed) / 3600.0

    def task_seconds(self) -> float:
        """Task-seconds consumed so far (scale-free variant of task hours)."""
        return self._task_seconds + self._active_tasks * (self.sim.now - self._last_change)
