"""Unit tests for the runtime graph registry and the QoS reporters.

Both modules sit on the engine's hot path but previously had only
integration coverage; these tests pin their contracts directly.
"""

from __future__ import annotations

import pytest

from conftest import make_linear_job
from repro.engine.runtime import RuntimeGraph, RuntimeVertex
from repro.engine.task import CREATED, DRAINING, RUNNING, STOPPED
from repro.qos.reporter import ChannelReporter, TaskReporter


class FakeTask:
    """Just enough of RuntimeTask for the registry's state filters."""

    def __init__(self, state: str) -> None:
        self.state = state


class FakeChannel:
    def __init__(self, edge_name: str) -> None:
        self.edge_name = edge_name


@pytest.fixture
def graph():
    return make_linear_job(n_workers=3)


@pytest.fixture
def runtime(graph):
    return RuntimeGraph(graph)


class TestRuntimeVertex:
    def test_subtask_indices_are_monotonic(self, graph):
        vertex = RuntimeVertex(graph.vertices["Worker"])
        assert [vertex.next_subtask_index() for _ in range(4)] == [0, 1, 2, 3]

    def test_parallelism_counts_running_and_created_only(self, graph):
        vertex = RuntimeVertex(graph.vertices["Worker"])
        vertex.tasks = [
            FakeTask(RUNNING),
            FakeTask(CREATED),
            FakeTask(DRAINING),
            FakeTask(STOPPED),
        ]
        assert vertex.parallelism == 2
        assert len(vertex.active_tasks()) == 2

    def test_target_parallelism_includes_pending_additions(self, graph):
        vertex = RuntimeVertex(graph.vertices["Worker"])
        vertex.tasks = [FakeTask(RUNNING)]
        vertex.pending_additions = 2
        assert vertex.parallelism == 1
        assert vertex.target_parallelism == 3


class TestRuntimeGraph:
    def test_vertices_mirror_the_job_graph(self, runtime):
        assert set(runtime.vertices) == {"Source", "Worker", "Sink"}
        assert runtime.vertex("Worker").name == "Worker"
        assert runtime.parallelism("Worker") == 0  # nothing deployed yet

    def test_all_tasks_spans_vertices(self, runtime):
        runtime.vertex("Source").tasks = [FakeTask(RUNNING)]
        runtime.vertex("Worker").tasks = [FakeTask(RUNNING), FakeTask(DRAINING)]
        assert len(runtime.all_tasks()) == 3
        assert sum(v.parallelism for v in runtime.vertices.values()) == 2  # draining excluded

    def test_channel_registry_register_unregister(self, runtime, graph):
        edge_name = graph.edges[0].name
        channel = FakeChannel(edge_name)
        runtime.register_channel(channel)
        assert runtime.edge_channels[edge_name] == [channel]
        runtime.unregister_channel(channel)
        assert runtime.edge_channels[edge_name] == []
        # Unregistering twice (or an unknown channel) is a no-op.
        runtime.unregister_channel(channel)
        runtime.unregister_channel(FakeChannel("nonexistent-edge"))


class TestTaskReporter:
    def test_flush_freezes_and_resets(self):
        reporter = TaskReporter("Worker", "Worker-0")
        for value in (0.010, 0.020, 0.030):
            reporter.record_task_latency(value)
        reporter.record_service_time(0.002)
        reporter.record_interarrival(0.005)
        reporter.record_interarrival(0.007)

        measurement = reporter.flush(now=42.0)
        assert measurement.vertex_name == "Worker"
        assert measurement.task_id == "Worker-0"
        assert measurement.timestamp == 42.0
        assert measurement.task_latency.count == 3
        assert measurement.task_latency.mean == pytest.approx(0.020)
        assert measurement.service_time.count == 1
        assert measurement.service_time.mean == pytest.approx(0.002)
        assert measurement.interarrival.count == 2
        assert measurement.interarrival.mean == pytest.approx(0.006)

        # flush() reset the accumulators: the next interval starts empty.
        empty = reporter.flush(now=43.0)
        assert empty.task_latency.count == 0
        assert empty.service_time.count == 0
        assert empty.interarrival.count == 0

    def test_intervals_are_independent(self):
        reporter = TaskReporter("Worker", "Worker-0")
        reporter.record_service_time(1.0)
        reporter.flush(now=1.0)
        reporter.record_service_time(3.0)
        second = reporter.flush(now=2.0)
        assert second.service_time.count == 1
        assert second.service_time.mean == pytest.approx(3.0)


class TestChannelReporter:
    def test_flush_freezes_and_resets(self):
        reporter = ChannelReporter("Source->Worker", 7)
        reporter.record_channel_latency(0.004)
        reporter.record_channel_latency(0.006)
        reporter.record_output_batch_latency(0.001)

        channel_latency, output_batch_latency = reporter.drain()
        assert reporter.edge_name == "Source->Worker"
        assert reporter.channel_id == 7
        assert channel_latency.count == 2
        assert channel_latency.mean == pytest.approx(0.005)
        assert output_batch_latency.count == 1

        channel_latency, output_batch_latency = reporter.drain()
        assert channel_latency.count == 0
        assert output_batch_latency.count == 0

    def test_variance_survives_flush(self):
        reporter = ChannelReporter("edge", 0)
        for value in (1.0, 2.0, 3.0):
            reporter.record_channel_latency(value)
        channel_latency, _ = reporter.drain()
        assert channel_latency.variance == pytest.approx(1.0)
