"""Unit tests for the QoS measurement pipeline (reporters -> summaries)."""

import pytest

from repro.qos.manager import QoSManager
from repro.qos.reporter import ChannelReporter, TaskReporter
from repro.qos.stats import OnlineStats
from repro.qos.summary import (
    EdgeSummary,
    GlobalSummary,
    PartialSummary,
    VertexSummary,
    merge_partial_summaries,
)


class FakeTask:
    _uid = 1000

    def __init__(self, vertex="V", state="running"):
        FakeTask._uid += 1
        self.uid = FakeTask._uid
        self.vertex_name = vertex
        self.task_id = f"{vertex}#{self.uid}"
        self.state = state
        self.out_gates = []


class FakeChannel:
    _cid = 1000

    def __init__(self, edge="E", closed=False):
        FakeChannel._cid += 1
        self.channel_id = FakeChannel._cid
        self.edge_name = edge
        self.closed = closed


class TestTaskReporter:
    def test_flush_snapshots_and_resets(self):
        r = TaskReporter("V", "V[0]")
        r.record_service_time(0.01)
        r.record_service_time(0.03)
        r.record_interarrival(0.005)
        r.record_task_latency(0.02)
        m = r.flush(now=1.0)
        assert m.service_time.count == 2
        assert m.service_time.mean == pytest.approx(0.02)
        assert m.interarrival.count == 1
        assert m.task_latency.mean == pytest.approx(0.02)
        # reset
        assert r.flush(now=2.0).service_time.count == 0

    def test_measurement_carries_identity(self):
        m = TaskReporter("V", "V[3]").flush(0.5)
        assert (m.vertex_name, m.task_id, m.timestamp) == ("V", "V[3]", 0.5)


class TestChannelReporter:
    def test_flush(self):
        r = ChannelReporter("E", 7)
        r.record_channel_latency(0.01)
        r.record_output_batch_latency(0.004)
        channel_latency, output_batch_latency = r.drain()
        assert channel_latency.mean == pytest.approx(0.01)
        assert output_batch_latency.mean == pytest.approx(0.004)
        assert (r.edge_name, r.channel_id) == ("E", 7)


class TestQoSManager:
    def make_manager(self, n_tasks=2, window=3):
        manager = QoSManager(0, window=window)
        pairs = []
        for _ in range(n_tasks):
            task = FakeTask()
            reporter = TaskReporter(task.vertex_name, task.task_id)
            manager.attach_task(task, reporter)
            pairs.append((task, reporter))
        return manager, pairs

    def feed(self, manager, pairs, service, interarrival, now):
        for (task, reporter), s in zip(pairs, service):
            reporter.record_service_time(s)
            reporter.record_interarrival(interarrival)
            reporter.record_task_latency(s)
        manager.collect(now)

    def test_partial_summary_averages_tasks(self):
        manager, pairs = self.make_manager(2)
        self.feed(manager, pairs, [0.010, 0.030], 0.01, 1.0)
        summary = manager.partial_summary(1.0)
        vs = summary.vertices["V"]
        assert vs.service_mean == pytest.approx(0.020)
        assert vs.n_tasks == 2
        assert vs.arrival_rate == pytest.approx(100.0)

    def test_windowing_pools_past_measurements(self):
        manager, pairs = self.make_manager(1, window=2)
        self.feed(manager, pairs, [0.010], 0.01, 1.0)
        self.feed(manager, pairs, [0.030], 0.01, 2.0)
        vs = manager.partial_summary(2.0).vertices["V"]
        assert vs.service_mean == pytest.approx(0.020)

    def test_window_evicts_old_measurements(self):
        manager, pairs = self.make_manager(1, window=1)
        self.feed(manager, pairs, [0.010], 0.01, 1.0)
        self.feed(manager, pairs, [0.030], 0.01, 2.0)
        vs = manager.partial_summary(2.0).vertices["V"]
        assert vs.service_mean == pytest.approx(0.030)

    def test_stopped_tasks_evicted(self):
        manager, pairs = self.make_manager(2)
        pairs[0][0].state = "stopped"
        manager.collect(1.0)
        assert manager.task_count == 1

    def test_channel_summary(self):
        manager = QoSManager(0)
        channel = FakeChannel("E")
        reporter = ChannelReporter("E", channel.channel_id)
        manager.attach_channel(channel, reporter)
        reporter.record_channel_latency(0.02)
        reporter.record_output_batch_latency(0.008)
        manager.collect(1.0)
        es = manager.partial_summary(1.0).edges["E"]
        assert es.channel_latency == pytest.approx(0.02)
        assert es.output_batch_latency == pytest.approx(0.008)
        assert es.queueing_time == pytest.approx(0.012)

    def test_closed_channels_evicted(self):
        manager = QoSManager(0)
        channel = FakeChannel("E", closed=True)
        manager.attach_channel(channel, ChannelReporter("E", channel.channel_id))
        manager.collect(1.0)
        assert manager.channel_count == 0

    def test_empty_intervals_do_not_pollute(self):
        manager, pairs = self.make_manager(1)
        self.feed(manager, pairs, [0.010], 0.01, 1.0)
        manager.collect(2.0)  # nothing recorded this interval
        vs = manager.partial_summary(2.0).vertices["V"]
        assert vs.service_mean == pytest.approx(0.010)


class TestMergePartialSummaries:
    def vertex(self, name, service, n):
        return VertexSummary(name, 0.0, service, 0.5, 0.01, 1.0, n_tasks=n)

    def test_weighted_vertex_merge(self):
        p1 = PartialSummary(1.0)
        p1.vertices["V"] = self.vertex("V", 0.010, 1)
        p2 = PartialSummary(1.0)
        p2.vertices["V"] = self.vertex("V", 0.040, 3)
        merged = merge_partial_summaries(1.0, [p1, p2])
        vs = merged.vertices["V"]
        assert vs.service_mean == pytest.approx((0.010 * 1 + 0.040 * 3) / 4)
        assert vs.n_tasks == 4

    def test_edge_merge(self):
        p1 = PartialSummary(1.0)
        p1.edges["E"] = EdgeSummary("E", 0.02, 0.01, 2)
        p2 = PartialSummary(1.0)
        p2.edges["E"] = EdgeSummary("E", 0.05, 0.02, 2)
        merged = merge_partial_summaries(1.0, [p1, p2])
        es = merged.edges["E"]
        assert es.channel_latency == pytest.approx(0.035)
        assert es.n_channels == 4

    def test_disjoint_vertices_preserved(self):
        p1 = PartialSummary(1.0)
        p1.vertices["A"] = self.vertex("A", 0.01, 1)
        p2 = PartialSummary(1.0)
        p2.vertices["B"] = self.vertex("B", 0.02, 1)
        merged = merge_partial_summaries(1.0, [p1, p2])
        assert set(merged.vertices) == {"A", "B"}

    def test_empty_merge(self):
        merged = merge_partial_summaries(5.0, [])
        assert merged.vertices == {}
        assert merged.timestamp == 5.0


class TestSummaryTypes:
    def test_vertex_summary_derived_quantities(self):
        vs = VertexSummary("V", 0.001, 0.004, 0.5, 0.01, 1.0, n_tasks=2)
        assert vs.arrival_rate == pytest.approx(100.0)
        assert vs.utilization == pytest.approx(0.4)

    def test_zero_interarrival_means_no_arrivals(self):
        vs = VertexSummary("V", 0.0, 0.004, 0.5, 0.0, 0.0, n_tasks=1)
        assert vs.arrival_rate == 0.0
        assert vs.utilization == 0.0

    def test_edge_queueing_time_clamped(self):
        es = EdgeSummary("E", 0.001, 0.002, 1)  # obl > latency (noise)
        assert es.queueing_time == 0.0

    def test_global_summary_lookup(self):
        g = GlobalSummary(1.0)
        assert g.vertex("missing") is None
        assert g.edge("missing") is None
