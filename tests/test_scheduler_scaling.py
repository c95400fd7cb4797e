"""Integration tests: scheduler wiring, elastic scale-up/down, resources."""

import pytest

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.resources import InsufficientResourcesError, ResourceManager
from repro.engine.worker import WorkerNode
from repro.simulation.kernel import Simulator

from conftest import make_linear_job


def deploy(worker_min=1, worker_max=16, n_workers=2, source_rate=100.0, config=None):
    engine = StreamProcessingEngine(config or EngineConfig())
    graph = make_linear_job(
        source_rate=source_rate,
        n_workers=n_workers,
        worker_min=worker_min,
        worker_max=worker_max,
    )
    return engine.submit(graph)


class TestDeployment:
    def test_initial_parallelism(self):
        job = deploy(n_workers=3)
        assert job.parallelism("Worker") == 3
        assert job.parallelism("Source") == 1

    def test_full_mesh_channels(self):
        job = deploy(n_workers=3)
        channels = job.runtime.edge_channels["Source->Worker"]
        assert len(channels) == 3  # 1 source x 3 workers
        channels = job.runtime.edge_channels["Worker->Sink"]
        assert len(channels) == 3  # 3 workers x 1 sink

    def test_gates_wired_per_out_edge(self):
        job = deploy(n_workers=2)
        source_task = job.runtime.vertex("Source").tasks[0]
        assert len(source_task.out_gates) == 1
        assert len(source_task.out_gates[0].channels) == 2

    def test_reporters_attached(self):
        job = deploy()
        for task in job.runtime.all_tasks():
            assert task.reporter is not None
        for channel in job.runtime.edge_channels["Source->Worker"]:
            assert channel.reporter is not None

    def test_tasks_occupy_slots(self):
        job = deploy(n_workers=3)
        assert job.engine.resources.active_tasks == 5  # 1 + 3 + 1


class TestScaleUp:
    def test_scale_up_after_startup_delay(self):
        job = deploy()
        job.engine.run(2.0)
        job.scheduler.set_parallelism("Worker", 4)
        assert job.parallelism("Worker") == 2  # not yet materialized
        assert job.runtime.vertex("Worker").pending_additions == 2
        job.engine.run(job.engine.config.startup_delay + 0.1)
        assert job.parallelism("Worker") == 4
        assert job.runtime.vertex("Worker").pending_additions == 0

    def test_new_tasks_receive_items(self):
        job = deploy(source_rate=200.0)
        job.engine.run(2.0)
        job.scheduler.set_parallelism("Worker", 4)
        job.engine.run(10.0)
        new_tasks = job.runtime.vertex("Worker").tasks[-2:]
        assert all(t.items_processed > 0 for t in new_tasks)

    def test_upstream_partitioners_resized(self):
        job = deploy()
        job.engine.run(1.0)
        job.scheduler.set_parallelism("Worker", 5)
        job.engine.run(2.0)
        source_task = job.runtime.vertex("Source").tasks[0]
        gate = source_task.out_gates[0]
        assert len(gate.channels) == 5
        assert gate.partitioner.fanout == 5

    def test_new_tasks_wired_downstream(self):
        job = deploy()
        job.engine.run(1.0)
        job.scheduler.set_parallelism("Worker", 3)
        job.engine.run(2.0)
        new_task = job.runtime.vertex("Worker").tasks[-1]
        assert len(new_task.out_gates[0].channels) == 1  # to the sink

    def test_set_parallelism_idempotent_with_pending(self):
        job = deploy()
        job.engine.run(1.0)
        result = job.scheduler.set_parallelism("Worker", 5)
        assert (result.requested, result.applied) == (3, 3)
        # pending additions count towards target: no double scale-up
        assert job.scheduler.set_parallelism("Worker", 5)[:2] == (0, 0)

    def test_scale_up_clamped_to_max(self):
        job = deploy(worker_max=4)
        job.engine.run(1.0)
        job.scheduler.set_parallelism("Worker", 99)
        job.engine.run(2.0)
        assert job.parallelism("Worker") == 4

    def test_scale_up_is_counted(self):
        job = deploy()
        job.engine.run(1.0)
        job.scheduler.set_parallelism("Worker", 3)
        job.engine.run(2.0)
        assert job.scheduler.scale_ups == 1
        assert job.scheduler.tasks_started == 5  # 4 deployed + 1 added


class TestScaleDown:
    def test_scale_down_drains_and_removes(self):
        job = deploy(n_workers=4, source_rate=100.0)
        job.engine.run(3.0)
        job.scheduler.scale_down("Worker", 2)
        job.engine.run(3.0)
        assert job.parallelism("Worker") == 2
        assert len(job.runtime.vertex("Worker").tasks) == 2

    def test_victims_release_slots(self):
        job = deploy(n_workers=4)
        job.engine.run(2.0)
        before = job.engine.resources.active_tasks
        job.scheduler.scale_down("Worker", 2)
        job.engine.run(3.0)
        assert job.engine.resources.active_tasks == before - 2

    def test_no_items_lost_on_scale_down(self):
        job = deploy(n_workers=4, source_rate=200.0)
        job.engine.run(5.0)
        job.scheduler.scale_down("Worker", 3)
        job.engine.run(10.0)
        emitted = sum(t.items_processed for t in job.runtime.vertex("Source").tasks)
        consumed = sum(u.consumed for u in (t.udf for t in job.runtime.vertex("Sink").tasks))
        # everything emitted long before the end must get through
        assert consumed >= emitted - 60

    def test_never_drains_last_task(self):
        job = deploy(n_workers=2, worker_min=1)
        job.engine.run(1.0)
        job.scheduler.scale_down("Worker", 99)
        job.engine.run(2.0)
        assert job.parallelism("Worker") == 1

    def test_set_parallelism_respects_min(self):
        job = deploy(n_workers=4, worker_min=2)
        job.engine.run(1.0)
        job.scheduler.set_parallelism("Worker", 1)
        job.engine.run(2.0)
        assert job.parallelism("Worker") == 2

    def test_draining_task_excluded_from_parallelism(self):
        config = EngineConfig(queue_capacity=64)
        job = deploy(n_workers=4, source_rate=400.0, config=config)
        job.engine.run(3.0)
        job.scheduler.scale_down("Worker", 2)
        # immediately after, victims may still be draining
        assert job.parallelism("Worker") == 2

    def test_victim_channels_closed_after_drain(self):
        job = deploy(n_workers=3)
        job.engine.run(2.0)
        victim = job.runtime.vertex("Worker").tasks[-1]
        job.scheduler.scale_down("Worker", 1)
        job.engine.run(3.0)
        assert victim.state == "stopped"
        assert all(c.closed for c in victim.in_channels)


class TestWorkerNode:
    def test_slot_assignment(self):
        class T:  # minimal stand-in
            task_id = "t"

        worker = WorkerNode(0, slots=2)
        t1, t2 = T(), T()
        assert worker.assign(t1) == 0
        assert worker.assign(t2) == 1
        assert worker.free_slots == 0
        with pytest.raises(RuntimeError):
            worker.assign(T())
        worker.release(t1)
        assert worker.free_slots == 1
        with pytest.raises(KeyError):
            worker.release(t1)

    def test_invalid_slots_rejected(self):
        with pytest.raises(ValueError):
            WorkerNode(0, slots=0)


class _FakeTask:
    _uid = 0

    def __init__(self):
        _FakeTask._uid += 1
        self.uid = _FakeTask._uid
        self.task_id = f"t{self.uid}"


class TestResourceManager:
    T = _FakeTask

    def test_leases_workers_on_demand(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=2, slots_per_worker=2)
        tasks = [self.T() for _ in range(3)]
        for t in tasks:
            rm.allocate_slot(t)
        assert rm.leased_workers == 2
        assert rm.active_tasks == 3

    def test_pool_exhaustion_raises(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=1, slots_per_worker=2)
        rm.allocate_slot(self.T())
        rm.allocate_slot(self.T())
        with pytest.raises(InsufficientResourcesError):
            rm.allocate_slot(self.T())

    def test_release_frees_worker(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=2, slots_per_worker=1)
        t = self.T()
        rm.allocate_slot(t)
        rm.release_slot(t)
        assert rm.leased_workers == 0
        assert rm.active_tasks == 0

    def test_task_seconds_accounting(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=4, slots_per_worker=4)
        t1, t2 = self.T(), self.T()
        rm.allocate_slot(t1)
        sim.run(until=10.0)
        rm.allocate_slot(t2)
        sim.run(until=15.0)
        rm.release_slot(t1)
        sim.run(until=20.0)
        # t1: 0..15 = 15s; t2: 10..20 = 10s
        assert rm.task_seconds() == pytest.approx(25.0)
        assert rm.task_hours() == pytest.approx(25.0 / 3600.0)

    def test_free_slots_available(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=2, slots_per_worker=2)
        assert rm.free_slots_available() == 4
        rm.allocate_slot(self.T())
        assert rm.free_slots_available() == 3

    def test_worker_hours_accumulate(self):
        sim = Simulator()
        rm = ResourceManager(sim, pool_size=2, slots_per_worker=2)
        t = self.T()
        rm.allocate_slot(t)
        sim.run(until=7200.0)
        assert rm.worker_hours() == pytest.approx(2.0)
