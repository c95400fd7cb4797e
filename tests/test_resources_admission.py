"""Admission control, arbitration and placement in the ResourceManager.

Covers the reservation-based admission path (request/allocate/cancel
accounting, quota and capacity denials), the three arbitration policies,
worker-placement strategies, the stable worker-id speed-factor fix and
Jain's fairness helper.
"""

import pytest

from repro.engine.admission import (
    AdmissionDecision,
    JobAccount,
    StrictPriorityArbitration,
    WeightedFairShareArbitration,
    create_arbitration,
    jain_fairness,
)
from repro.engine.resources import InsufficientResourcesError, ResourceManager
from repro.simulation.kernel import Simulator


class _FakeTask:
    _uid = 0

    def __init__(self, vertex_name="worker"):
        _FakeTask._uid += 1
        self.uid = _FakeTask._uid
        self.task_id = f"t{self.uid}"
        self.vertex_name = vertex_name


def _rm(**kwargs):
    kwargs.setdefault("pool_size", 2)
    kwargs.setdefault("slots_per_worker", 2)
    return ResourceManager(Simulator(), **kwargs)


class TestReservationAccounting:
    def test_request_reserves_and_allocate_consumes(self):
        rm = _rm()
        rm.register_job("a", "alpha")
        grant = rm.request_slots("a", 3)
        assert grant.admitted
        assert rm.account("a").reserved == 3
        assert rm.free_slots_available() == 4  # reservations are not physical
        assert rm.allocatable_slots() == 1
        for _ in range(3):
            rm.allocate_slot(_FakeTask(), "a")
        account = rm.account("a")
        assert account.reserved == 0
        assert account.held == 3

    def test_cancel_returns_reserved_slots(self):
        rm = _rm()
        rm.register_job("a", "alpha")
        rm.request_slots("a", 2)
        rm.cancel_reservation("a", 2)
        assert rm.account("a").reserved == 0
        assert rm.allocatable_slots() == 4

    def test_cancel_clamps_to_outstanding(self):
        rm = _rm()
        rm.register_job("a", "alpha")
        rm.request_slots("a", 1)
        rm.cancel_reservation("a", 99)
        assert rm.account("a").reserved == 0
        assert rm.allocatable_slots() == 4

    def test_reservations_block_other_requests(self):
        rm = _rm()  # 4 slots total
        rm.register_job("a", "alpha")
        rm.register_job("b", "beta")
        assert rm.request_slots("a", 3).admitted
        denied = rm.request_slots("b", 2)
        assert not denied.admitted
        assert "insufficient cluster capacity" in denied.reason
        assert rm.account("b").denials == 1
        assert rm.admission_denials == 1

    def test_zero_or_negative_requests_are_trivially_admitted(self):
        rm = _rm()
        assert rm.request_slots("a", 0) == AdmissionDecision(True)
        assert rm.request_slots("a", -1) == AdmissionDecision(True)
        assert rm.allocatable_slots() == rm.free_slots_available()

    def test_quota_caps_footprint(self):
        rm = _rm(pool_size=4)
        rm.register_job("a", "alpha", quota=2)
        assert rm.request_slots("a", 2).admitted
        denied = rm.request_slots("a", 1)
        assert not denied.admitted
        assert "quota exceeded" in denied.reason

    def test_duplicate_registration_rejected(self):
        rm = _rm()
        rm.register_job("a", "alpha")
        with pytest.raises(ValueError):
            rm.register_job("a", "alpha-again")

    def test_allocate_without_reservation_raises_on_full_pool(self):
        rm = _rm(pool_size=1, slots_per_worker=1)
        rm.allocate_slot(_FakeTask())
        with pytest.raises(InsufficientResourcesError):
            rm.allocate_slot(_FakeTask())

    def test_per_job_task_seconds_attribution(self):
        rm = _rm(pool_size=4)
        rm.register_job("a", "alpha")
        rm.register_job("b", "beta")
        ta, tb = _FakeTask(), _FakeTask()
        rm.allocate_slot(ta, "a")
        rm.allocate_slot(tb, "b")
        rm.sim.run(until=10.0)
        rm.release_slot(tb)
        rm.sim.run(until=30.0)
        summaries = rm.job_summaries()
        assert summaries["alpha"]["task_seconds"] == pytest.approx(30.0)
        assert summaries["beta"]["task_seconds"] == pytest.approx(10.0)


class TestArbitrationPolicies:
    def _fill(self, rm, job_id, count):
        tasks = [_FakeTask() for _ in range(count)]
        for task in tasks:
            rm.allocate_slot(task, job_id)
        return tasks

    def _install_hook(self, rm, job_id, tasks):
        def hook(slots, requester):
            freed = 0
            while tasks and freed < slots:
                rm.release_slot(tasks.pop())
                freed += 1
            return freed

        rm.set_preemption_hook(job_id, hook)

    def test_fcfs_never_preempts(self):
        rm = _rm(admission="fcfs")
        rm.register_job("a", "alpha")
        rm.register_job("b", "beta")
        tasks = self._fill(rm, "a", 4)
        self._install_hook(rm, "a", tasks)
        denied = rm.request_slots("b", 1)
        assert not denied.admitted
        assert rm.preempted_tasks == 0
        assert len(tasks) == 4  # hook never consulted

    def test_priority_preempts_lower_priority_holder(self):
        rm = _rm(admission="priority")
        rm.register_job("low", "low", priority=0)
        rm.register_job("high", "high", priority=5)
        tasks = self._fill(rm, "low", 4)
        self._install_hook(rm, "low", tasks)
        grant = rm.request_slots("high", 2)
        assert grant.admitted
        assert grant.preempted == (("low", 2),)
        assert rm.preempted_tasks == 2
        assert rm.account("low").preemptions_suffered == 2
        assert rm.account("high").preemptions_inflicted == 2

    def test_priority_never_preempts_equal_priority(self):
        rm = _rm(admission="priority")
        rm.register_job("a", "alpha", priority=1)
        rm.register_job("b", "beta", priority=1)
        tasks = self._fill(rm, "a", 4)
        self._install_hook(rm, "a", tasks)
        assert not rm.request_slots("b", 1).admitted
        assert rm.preempted_tasks == 0

    def test_fair_share_preempts_over_share_holder(self):
        # 4 slots, weights 3:1 -> shares 3 and 1. beta holds 3 (> 1),
        # alpha requests 2 while under its share of 3 -> beta bleeds.
        rm = _rm(admission="fair-share")
        rm.register_job("a", "alpha", weight=3.0)
        rm.register_job("b", "beta", weight=1.0)
        tasks = self._fill(rm, "b", 3)
        self._install_hook(rm, "b", tasks)
        grant = rm.request_slots("a", 2)
        assert grant.admitted
        assert grant.preempted == (("beta", 1),)
        assert rm.preempted_tasks == 1

    def test_fair_share_over_share_requester_cannot_preempt(self):
        rm = _rm(admission="fair-share")
        rm.register_job("a", "alpha", weight=1.0)
        rm.register_job("b", "beta", weight=1.0)
        tasks = self._fill(rm, "b", 2)
        self._install_hook(rm, "b", tasks)
        self._fill(rm, "a", 2)  # alpha now at its share of 2
        denied = rm.request_slots("a", 1)
        assert not denied.admitted
        assert rm.preempted_tasks == 0

    def test_unknown_arbitration_rejected(self):
        with pytest.raises(ValueError):
            create_arbitration("bogus")
        with pytest.raises(ValueError):
            _rm(admission="bogus")

    def test_priority_victims_bleed_lowest_first(self):
        policy = StrictPriorityArbitration()
        a = JobAccount("a", "a", priority=1)
        b = JobAccount("b", "b", priority=0)
        requester = JobAccount("r", "r", priority=9)
        a.held = b.held = 2
        victims = policy.victims([a, b, requester], requester, 1, 8)
        assert [v.name for v in victims] == ["b", "a"]

    def test_fair_share_victims_most_over_share_first(self):
        policy = WeightedFairShareArbitration()
        a = JobAccount("a", "a")
        b = JobAccount("b", "b")
        requester = JobAccount("r", "r")
        # shares are 4 each (12 slots / 3 equal weights)
        a.held = 6
        b.held = 5
        victims = policy.victims([a, b, requester], requester, 2, 12)
        assert [v.name for v in victims] == ["a", "b"]


class TestPlacementStrategies:
    def test_pack_fills_first_worker(self):
        rm = _rm(pool_size=4, slots_per_worker=4, placement="pack")
        for _ in range(4):
            rm.allocate_slot(_FakeTask())
        assert rm.leased_workers == 1

    def test_spread_leases_new_workers_early(self):
        rm = _rm(pool_size=4, slots_per_worker=4, placement="spread")
        for _ in range(4):
            rm.allocate_slot(_FakeTask())
        # half-full threshold: every worker keeps >= 2 free slots
        assert rm.leased_workers == 2

    def test_network_colocates_graph_neighbors(self):
        rm = _rm(pool_size=4, slots_per_worker=4, placement="network")
        rm.register_job("j", "job")
        rm.set_neighbor_map("j", {"a": {"b"}, "b": {"a"}, "c": set()})
        producer = _FakeTask("a")
        rm.allocate_slot(producer, "j")
        # pad the first worker so pack would NOT naturally pick worker 2
        filler = [_FakeTask("c") for _ in range(3)]
        for task in filler:
            rm.allocate_slot(task, "j")
        # first worker now full; consumer must land on a new worker, but
        # once the producer's worker frees a slot, neighbors rejoin it
        rm.release_slot(filler[0])
        consumer = _FakeTask("b")
        rm.allocate_slot(consumer, "j")
        assert rm.worker_of(consumer) is rm.worker_of(producer)

    def test_network_placement_falls_back_to_pack(self):
        rm = _rm(pool_size=2, slots_per_worker=2, placement="network")
        rm.register_job("j", "job")
        rm.set_neighbor_map("j", {"a": set()})
        t1, t2 = _FakeTask("a"), _FakeTask("a")
        rm.allocate_slot(t1, "j")
        rm.allocate_slot(t2, "j")
        assert rm.worker_of(t1) is rm.worker_of(t2)


class TestStableWorkerSpeeds:
    # Worker ids reach outputs, so a worker's id is a stable pool index,
    # not a function of lease history.
    def test_speed_factor_follows_stable_worker_index(self):
        rm = ResourceManager(Simulator(), pool_size=3, slots_per_worker=1)
        tasks = [_FakeTask() for _ in range(3)]
        for task in tasks:
            rm.allocate_slot(task)
        assert [rm.worker_of(t).worker_id for t in tasks] == [0, 1, 2]
        # free worker 1, then re-lease: the freed id is reused lowest-first
        rm.release_slot(tasks[1])
        replacement = _FakeTask()
        rm.allocate_slot(replacement)
        assert rm.worker_of(replacement).worker_id == 1

    def test_release_order_does_not_permute_speeds(self):
        rm = ResourceManager(Simulator(), pool_size=2, slots_per_worker=1)
        t0, t1 = _FakeTask(), _FakeTask()
        rm.allocate_slot(t0)
        rm.allocate_slot(t1)
        rm.release_slot(t1)
        rm.release_slot(t0)
        ta, tb = _FakeTask(), _FakeTask()
        rm.allocate_slot(ta)
        rm.allocate_slot(tb)
        assert (rm.worker_of(ta).worker_id, rm.worker_of(tb).worker_id) == (0, 1)


class TestJainFairness:
    def test_equal_outcomes_are_perfectly_fair(self):
        assert jain_fairness([0.5, 0.5, 0.5]) == pytest.approx(1.0)

    def test_skewed_outcomes_lower_the_index(self):
        value = jain_fairness([1.0, 0.0, 0.0])
        assert value == pytest.approx(1.0 / 3.0)

    def test_empty_and_all_zero_are_none(self):
        assert jain_fairness([]) is None
        assert jain_fairness([0.0, 0.0]) is None
        assert jain_fairness([None, None]) is None
