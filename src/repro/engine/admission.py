"""Cluster admission control: job accounts and weighted fair share.

The paper scales one job; production clusters run many. This module is
the slot-broker between them: every job submitted to an engine gets a
:class:`JobAccount` (identity, fair-share weight, usage attribution),
and every scale-up must *reserve* its slots through
:meth:`~repro.engine.resources.ResourceManager.request_slots` before the
scheduler may announce new tasks. Reserving at request time is what
makes ``set_parallelism`` honest: it either holds the slots or reports
denial synchronously — the deferred-allocation window in which
``InsufficientResourcesError`` used to escape inside a sim-heap callback
no longer exists.

When the pool cannot cover a request, :func:`fair_share_victims`
decides whether other jobs are preempted. Each job's fair share is
``total_slots * weight / sum(weights)``; a requester under its share
may preempt jobs holding more than theirs (most over-share bleeds
first). A requester at or over its own share never preempts, and
neither does a job alone on the pool: its share is the whole pool, so
its request is denied exactly when the free slots fall short.

Preemption only ever takes *reducible* tasks: the victim job's
scheduler picks vertices above ``min_parallelism`` and force-stops the
youngest tasks, so a victim is squeezed, never killed. All decisions are
pure functions of the account table — no RNG, no heap events — so
shared-cluster runs stay deterministic and single-job runs are
byte-identical to the pre-admission engine.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.qos.stats import sum_in_order


class AdmissionDecision(NamedTuple):
    """Outcome of one slot request against the admission controller.

    ``preempted`` lists ``(job_name, slots_freed)`` per victim when the
    grant required preemption.
    """

    admitted: bool
    reason: str = ""
    preempted: Tuple[Tuple[str, int], ...] = ()


class JobAccount:
    """Per-job slot attribution and its fair-share weight.

    ``weight`` sizes the weighted fair share. ``task_seconds`` integrates
    held slots over virtual time, so shared-cluster cost reports can
    attribute usage to the job that consumed it.
    """

    __slots__ = (
        "job_id", "name", "weight",
        "held", "reserved", "task_seconds",
        "denials", "preemptions_suffered", "preemptions_inflicted",
        "preempt_hook",
    )

    def __init__(self, job_id: object, name: str, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError(f"fair-share weight must be > 0 (got {weight})")
        self.job_id = job_id
        self.name = name
        self.weight = float(weight)
        #: slots currently held by live tasks
        self.held = 0
        #: slots reserved for announced-but-unmaterialized tasks
        self.reserved = 0
        #: integral of held slots over virtual time
        self.task_seconds = 0.0
        # lifetime arbitration counters
        self.denials = 0
        self.preemptions_suffered = 0
        self.preemptions_inflicted = 0
        #: callback ``(slots, requester_name) -> freed`` installed by the
        #: deployed job; force-stops reducible tasks and returns how many
        #: slots were actually freed (synchronously)
        self.preempt_hook: Optional[Callable[[int, str], int]] = None

    @property
    def footprint(self) -> int:
        """Slots this job holds or has reserved."""
        return self.held + self.reserved

    def summary(self, elapsed: float = 0.0) -> dict:
        """JSON-serializable account snapshot (manifests, CLI reports).

        ``elapsed`` is the virtual time since ``task_seconds`` was last
        committed; the held slots are integrated over it without
        committing, so reading a snapshot does not change the integral.
        """
        return {
            "name": self.name,
            "weight": self.weight,
            "held": self.held,
            "reserved": self.reserved,
            "task_seconds": self.task_seconds + self.held * elapsed,
            "denials": self.denials,
            "preemptions_suffered": self.preemptions_suffered,
            "preemptions_inflicted": self.preemptions_inflicted,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"JobAccount({self.name!r}, held={self.held}, "
            f"reserved={self.reserved}, weight={self.weight:g})"
        )


def fair_share_victims(
    accounts: List[JobAccount], requester: JobAccount, total_slots: int
) -> List[JobAccount]:
    """The accounts that bleed slots for ``requester``, in bleed order.

    ``share_i = total_slots * w_i / sum(w)`` over registered jobs. Only
    a requester under its own share may preempt, and only jobs strictly
    over theirs are eligible — most over-share first, so repeated
    arbitration converges towards the share vector instead of thrashing
    one victim. An empty list denies the request. The rule is pure: the
    actual force-stop happens through each victim's ``preempt_hook``.
    """
    total_weight = sum_in_order(a.weight for a in accounts)

    def share(account: JobAccount) -> float:
        return total_slots * account.weight / total_weight

    if requester.footprint >= share(requester):
        return []  # already at/over its share: no right to preempt
    candidates = [a for a in accounts if a is not requester and a.held > share(a)]
    candidates.sort(key=lambda a: (-(a.held - share(a)), str(a.job_id)))
    return candidates


def jain_fairness(values: List[float]) -> Optional[float]:
    """Jain's fairness index over per-job outcomes (1.0 = perfectly fair).

    ``(sum x)^2 / (n * sum x^2)`` — the scoreboard's fairness metric over
    per-job constraint fulfillment. None for empty/all-zero inputs.
    """
    xs = [float(v) for v in values if v is not None]
    if not xs:
        return None
    square_sum = sum_in_order(x * x for x in xs)
    if square_sum == 0:
        return None
    total = sum_in_order(xs)
    return (total * total) / (len(xs) * square_sum)


__all__ = [
    "AdmissionDecision",
    "JobAccount",
    "fair_share_victims",
    "jain_fairness",
]
