"""The QoS measurement path against its sample-at-a-time references.

Reporters snapshot a whole interval in one frame, idle reporters hand out
a shared empty snapshot, managers push snapshots straight into windows
that keep their memo across idle intervals, and read-ready tasks reuse
the service snapshot as the task-latency snapshot. Every one of those is
bit-identical to the slow way of doing it; these tests hold the slow way
up as the reference.
"""

from __future__ import annotations

import math
import sys
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.task import RuntimeTask
from repro.engine.udf import READ_READY, MapUDF, SinkUDF, SourceUDF, WindowedAggregateUDF
from repro.graphs.job_graph import JobGraph
from repro.qos import stats as stats_module
from repro.qos.manager import QoSManager
from repro.qos.reporter import ChannelReporter, TaskReporter
from repro.qos.stats import (
    EMPTY_SNAPSHOT,
    OnlineStats,
    StatsSnapshot,
    WindowedStats,
    mean_in_order,
    snapshot_and_clear,
)
from repro.workloads.rates import ConstantRate

_values = st.floats(0.0, 1e3, allow_nan=False)
_interval = st.lists(_values, max_size=12)


def _triple(snap):
    return (snap.count, snap.mean, snap.variance)


def _aggregates(stats):
    return (
        stats.has_data,
        stats.count,
        stats.mean,
        stats.weighted_mean,
        stats.variance,
        stats.cv,
    )


def _reference_snapshot(samples):
    acc = OnlineStats()
    for value in samples:
        acc.add(value)
    return acc.snapshot_and_reset()


def _deque_window_aggregates(snaps):
    """Eq. 2 over a ``deque(maxlen=m)`` of snapshots, one loop per sum."""
    filled = [s for s in snaps if s.count > 0]
    if not filled:
        return (False, 0, 0.0, 0.0, 0.0, 0.0)
    total = 0
    mean_sum = 0.0
    weighted_sum = 0.0
    for s in filled:
        total += s.count
        mean_sum += s.mean
        weighted_sum += s.mean * s.count
    weighted_mean = weighted_sum / total
    variance = 0.0
    if total >= 2:
        ssq = 0.0
        for s in filled:
            ssq += s.variance * (s.count - 1)
            ssq += s.count * (s.mean - weighted_mean) ** 2
        variance = ssq / (total - 1)
    cv = 0.0 if weighted_mean == 0.0 else math.sqrt(variance) / weighted_mean
    return (True, total, mean_sum / len(filled), weighted_mean, variance, cv)


# ----------------------------------------------------------------------
# one interval: batch snapshot == OnlineStats.add per sample
# ----------------------------------------------------------------------


class TestBatchSnapshot:
    @given(samples=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=60))
    def test_bit_identical_to_sequential_welford(self, samples):
        expected = _triple(_reference_snapshot(samples))
        buffer = list(samples)
        assert _triple(snapshot_and_clear(buffer)) == expected
        assert buffer == []

    def test_no_sample_is_the_shared_empty_snapshot(self):
        assert snapshot_and_clear([]) is EMPTY_SNAPSHOT
        assert _triple(EMPTY_SNAPSHOT) == _triple(OnlineStats().snapshot_and_reset())

    def test_one_sample_has_zero_variance(self):
        assert _triple(snapshot_and_clear([0.25])) == (1, 0.25, 0.0)


def _integer_count_welford(samples):
    """The recurrence with an int counter and no zero shortcut, verbatim."""
    if not samples:
        return EMPTY_SNAPSHOT
    count = 0
    mean = 0.0
    m2 = 0.0
    for value in samples:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
    del samples[:]
    return StatsSnapshot(count, mean, m2 / (count - 1) if count > 1 else 0.0)


_signed_zero = st.sampled_from([0.0, -0.0])
_wide = st.floats(allow_nan=False, allow_infinity=False)
_mixed_sample = st.one_of(_signed_zero, _wide, st.floats(-1e-300, 1e-300, allow_nan=False))


def _same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSnapshotRecurrence:
    """The zero shortcut and the float counter are the Welford loop, bit for bit."""

    @given(samples=st.one_of(
        st.lists(_signed_zero, min_size=1, max_size=40),
        st.lists(_mixed_sample, min_size=1, max_size=1),
        st.lists(_mixed_sample, max_size=40),
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=40),
    ))
    @settings(max_examples=300)
    def test_equals_the_integer_count_loop(self, samples):
        expected = _integer_count_welford(list(samples))
        buffer = list(samples)
        got = snapshot_and_clear(buffer)
        assert buffer == []
        assert got.count == expected.count and type(got.count) is int
        if math.isnan(expected.mean):  # inf - inf in a wide-magnitude list
            assert math.isnan(got.mean)
        else:
            assert _same_bits(got.mean, expected.mean)
        if math.isnan(expected.variance):
            assert math.isnan(got.variance)
        else:
            assert _same_bits(got.variance, expected.variance)

    def test_all_zero_interval_is_positive_zero(self):
        snap = snapshot_and_clear([-0.0, 0.0, -0.0])
        assert (snap.count, snap.mean, snap.variance) == (3, 0.0, 0.0)
        assert math.copysign(1.0, snap.mean) == math.copysign(1.0, snap.variance) == 1.0


# ----------------------------------------------------------------------
# the window memo survives exactly the pushes that change nothing
# ----------------------------------------------------------------------


class TestWindowMemo:
    @given(window=st.integers(1, 8), intervals=st.lists(_interval, max_size=24))
    @settings(max_examples=80)
    def test_retained_memo_equals_fresh_recompute(self, window, intervals):
        live = WindowedStats(window)
        history = []
        for samples in intervals:
            snap = snapshot_and_clear(list(samples))
            live.push(snap)
            history.append(snap)
            fresh = WindowedStats(window)
            for past in history[-window:]:
                fresh.push(past)
            # read after every push, so the memo is always warm
            assert _aggregates(live) == _aggregates(fresh)

    @given(window=st.integers(1, 8), intervals=st.lists(_interval, max_size=24))
    @settings(max_examples=80)
    def test_list_window_equals_a_deque_reference(self, window, intervals):
        """The list-backed window answers like ``deque(maxlen=m)`` pooled by a loop."""
        live = WindowedStats(window)
        reference = deque(maxlen=window)
        for samples in intervals:
            snap = snapshot_and_clear(list(samples))
            live.push(snap)
            reference.append(snap)
            assert _aggregates(live) == _deque_window_aggregates(reference)

    def test_empty_push_keeps_the_memo_until_data_leaves(self, monkeypatch):
        computes = []
        original = WindowedStats._compute
        monkeypatch.setattr(
            WindowedStats,
            "_compute",
            lambda self: computes.append(1) or original(self),
        )
        stats = WindowedStats(3)
        stats.push(StatsSnapshot(2, 1.0, 0.5))
        assert stats.count == 2 and len(computes) == 1
        stats.push(EMPTY_SNAPSHOT)  # window not full: nothing evicted
        stats.push(EMPTY_SNAPSHOT)
        assert stats.count == 2 and len(computes) == 1
        stats.push(EMPTY_SNAPSHOT)  # evicts the data
        assert stats.count == 0 and len(computes) == 2
        stats.push(EMPTY_SNAPSHOT)  # empty replaces empty
        assert not stats.has_data and len(computes) == 2


# ----------------------------------------------------------------------
# version-independent float sums
# ----------------------------------------------------------------------


class TestInOrderSums:
    #: left to right these give 0.6000000000000001; math.fsum, and the
    #: compensated builtin sum() of CPython >= 3.12, give 0.6
    VALUES = [0.1, 0.2, 0.3]
    IN_ORDER = (0.1 + 0.2) + 0.3

    def test_the_pinned_values_tell_the_two_summations_apart(self):
        assert self.IN_ORDER != math.fsum(self.VALUES)
        if sys.version_info < (3, 12):
            assert sum(self.VALUES) == self.IN_ORDER

    def test_mean_in_order(self):
        assert mean_in_order(self.VALUES) == self.IN_ORDER / 3
        assert mean_in_order(iter(self.VALUES)) == self.IN_ORDER / 3
        assert mean_in_order([]) == 0.0

    def test_window_means_add_in_order(self):
        stats = WindowedStats(3)
        for value in self.VALUES:
            stats.push(StatsSnapshot(1, value, 0.0))
        assert stats.mean == self.IN_ORDER / 3
        assert stats.weighted_mean == self.IN_ORDER / 3

    def test_vertex_summary_adds_task_means_in_order(self):
        manager = QoSManager(0, window=1)
        for value in self.VALUES:
            task = _Task()
            reporter = TaskReporter(task.vertex_name, task.task_id)
            manager.attach_task(task, reporter)
            reporter.record_service_time(value)
        manager.collect(1.0)
        assert manager.partial_summary(1.0).vertices["V"].service_mean == self.IN_ORDER / 3

    def test_window_output_creation_time_adds_in_order(self, monkeypatch):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        job = engine.submit(_two_mode_job())
        (task,) = job.runtime.vertex("Win").tasks
        routed = []
        monkeypatch.setattr(
            RuntimeTask,
            "_route_outputs",
            lambda self, outputs, created_at, direct=False: routed.append(created_at),
        )
        task.udf.process(1)
        task._window_created = list(self.VALUES)
        task._flush_window()
        assert routed == [self.IN_ORDER / 3]


# ----------------------------------------------------------------------
# collect() == the flush(now) -> push reference, field for field
# ----------------------------------------------------------------------


class _Task:
    _uid = 5000

    def __init__(self, vertex="V"):
        _Task._uid += 1
        self.uid = _Task._uid
        self.vertex_name = vertex
        self.task_id = f"{vertex}#{self.uid}"
        self.state = "running"
        self.out_gates = []


class _Channel:
    _cid = 5000

    def __init__(self, edge="E"):
        _Channel._cid += 1
        self.channel_id = _Channel._cid
        self.edge_name = edge
        self.closed = False


class _ReferenceManager(QoSManager):
    """collect() the long way: measurement records, then pushes."""

    def collect(self, now):
        suppressed = now < self._suppressed_until
        if suppressed:
            self.dropped_collects += 1
        else:
            self._last_fresh = now
        for uid, (task, reporter, windows) in list(self._tasks.items()):
            if task.state == "stopped":
                del self._tasks[uid]
                continue
            measurement = reporter.flush(now)
            assert measurement.timestamp == now
            if not suppressed:
                windows.task_latency.push(measurement.task_latency)
                windows.service.push(measurement.service_time)
                windows.interarrival.push(measurement.interarrival)
        for cid, (channel, reporter, windows) in list(self._channels.items()):
            if channel.closed:
                del self._channels[cid]
                continue
            channel_latency, output_batch_latency = reporter.drain()
            if not suppressed:
                windows.latency.push(channel_latency)
                windows.obl.push(output_batch_latency)


def _summary_fields(summary):
    """Every field of every vertex and edge summary, for ``==``."""

    def fields(group):
        return {
            name: tuple(getattr(entry, slot) for slot in entry.__slots__)
            for name, entry in group.items()
        }

    return summary.timestamp, fields(summary.vertices), fields(summary.edges)


#: one measurement interval: per-task (latency, service, interarrival)
#: sample lists, per-channel (latency, obl) sample lists, and what
#: happens to the managed set before the collect
_N_TASKS = 4
_N_CHANNELS = 3
_tick = st.fixed_dictionaries(
    {
        "tasks": st.lists(
            st.tuples(_interval, _interval, _interval),
            min_size=_N_TASKS,
            max_size=_N_TASKS,
        ),
        "channels": st.lists(
            st.tuples(_interval, _interval), min_size=_N_CHANNELS, max_size=_N_CHANNELS
        ),
        "suppress_for": st.sampled_from([0.0, 0.0, 0.0, 1.5, 3.0]),
        "stop_task": st.sampled_from([None, None, None, 0, 1, 2, 3]),
        "close_channel": st.sampled_from([None, None, None, 0, 1, 2]),
    }
)


class TestCollectAgainstFlushAndPush:
    def _build(self, manager_class, window):
        manager = manager_class(0, window=window)
        tasks, channels = [], []
        for index in range(_N_TASKS):
            task = _Task("V" if index < 2 else "W")
            # odd tasks are read-ready: latency samples go nowhere
            reporter = TaskReporter(task.vertex_name, task.task_id, read_ready=bool(index % 2))
            manager.attach_task(task, reporter)
            tasks.append((task, reporter))
        for index in range(_N_CHANNELS):
            channel = _Channel("E" if index < 2 else "F")
            reporter = ChannelReporter(channel.edge_name, channel.channel_id)
            manager.attach_channel(channel, reporter)
            channels.append((channel, reporter))
        return manager, tasks, channels

    @given(window=st.integers(1, 5), ticks=st.lists(_tick, min_size=1, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_partial_summaries_are_field_identical(self, window, ticks):
        sides = [self._build(QoSManager, window), self._build(_ReferenceManager, window)]
        for number, tick in enumerate(ticks, start=1):
            now = float(number)
            for manager, tasks, channels in sides:
                if tick["suppress_for"]:
                    manager.suppress_measurements(now + tick["suppress_for"])
                if tick["stop_task"] is not None:
                    tasks[tick["stop_task"]][0].state = "stopped"
                if tick["close_channel"] is not None:
                    channels[tick["close_channel"]][0].closed = True
                for (task, reporter), (latency, service, interarrival) in zip(
                    tasks, tick["tasks"]
                ):
                    if not reporter.read_ready:
                        for value in latency:
                            reporter.record_task_latency(value)
                    for value in service:
                        reporter.record_service_time(value)
                    for value in interarrival:
                        reporter.record_interarrival(value)
                for (channel, reporter), (latency, obl) in zip(channels, tick["channels"]):
                    for value in latency:
                        reporter.record_channel_latency(value)
                    for value in obl:
                        reporter.record_output_batch_latency(value)
                manager.collect(now)
            fast, reference = sides[0][0], sides[1][0]
            assert _summary_fields(fast.partial_summary(now)) == _summary_fields(
                reference.partial_summary(now)
            )
            assert fast.task_count == reference.task_count
            assert fast.channel_count == reference.channel_count
            assert fast.dropped_collects == reference.dropped_collects
            assert fast.staleness(now) == reference.staleness(now)

    def test_a_suppressed_collect_still_drains_the_reporters(self):
        manager, tasks, channels = self._build(QoSManager, window=3)
        manager.suppress_measurements(until=2.5)
        for _task, reporter in tasks:
            reporter.record_service_time(9.0)
            reporter.record_interarrival(9.0)
        for _channel, reporter in channels:
            reporter.record_channel_latency(9.0)
        manager.collect(1.0)
        assert manager.dropped_collects == 1
        for _task, reporter in tasks:
            assert reporter.flush(1.5).service_time is EMPTY_SNAPSHOT
        for _channel, reporter in channels:
            assert reporter.drain()[0] is EMPTY_SNAPSHOT
        manager.collect(3.0)
        summary = manager.partial_summary(3.0)
        assert not summary.vertices and not summary.edges


# ----------------------------------------------------------------------
# read-ready tasks report one snapshot twice; read-write tasks do not
# ----------------------------------------------------------------------


class _ReadReadyWindow(WindowedAggregateUDF):
    """A windowed UDF that overrides the documented ``latency_mode``."""

    latency_mode = READ_READY


def _two_mode_job(window_udf=WindowedAggregateUDF):
    """Source -> Map (read-ready) -> windowed counter (read-write) -> Sink."""
    graph = JobGraph("two-mode")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))
    mapper = graph.add_vertex("Map", lambda: MapUDF(lambda x: x))
    win = graph.add_vertex(
        "Win",
        lambda: window_udf(
            0.2, create=lambda: 0, add=lambda acc, x: acc + 1, finalize=lambda acc: [acc]
        ),
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, mapper)
    graph.connect(mapper, win)
    graph.connect(win, sink)
    src.rate_profile = ConstantRate(100.0, jitter="deterministic")
    return graph


class TestLatencyModes:
    def test_read_ready_reuses_the_service_snapshot_read_write_does_not(self):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        job = engine.submit(_two_mode_job())
        engine.run(0.95)  # just short of the first measurement tick
        (map_task,) = job.runtime.vertex("Map").tasks
        (win_task,) = job.runtime.vertex("Win").tasks

        assert map_task.reporter.read_ready
        measurement = map_task.reporter.flush(0.95)
        assert measurement.service_time.count == map_task.items_processed > 0
        assert measurement.task_latency is measurement.service_time

        assert not win_task.reporter.read_ready
        measurement = win_task.reporter.flush(0.95)
        assert measurement.service_time.count == win_task.items_processed > 0
        assert measurement.task_latency is not measurement.service_time
        # consume -> window flush, about half the 200 ms window; the
        # service time of the zero-cost UDF is nowhere near it
        assert 0.05 <= measurement.task_latency.mean <= 0.15
        assert measurement.service_time.mean < 0.01

    def test_latency_mode_alone_picks_the_stream_even_on_a_windowed_udf(self):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        job = engine.submit(_two_mode_job(_ReadReadyWindow))
        engine.run(0.95)  # four window flushes in, none may touch the reporter
        (win_task,) = job.runtime.vertex("Win").tasks
        assert win_task.reporter.read_ready
        measurement = win_task.reporter.flush(0.95)
        assert measurement.service_time.count == win_task.items_processed > 0
        assert measurement.task_latency is measurement.service_time

    def test_a_read_ready_reporter_takes_no_separate_latency_samples(self):
        reporter = TaskReporter("V", "V[0]", read_ready=True)
        assert not hasattr(reporter, "record_task_latency")
        reporter.record_service_time(0.5)
        latency, service, interarrival = reporter.drain()
        assert latency is service and _triple(service) == (1, 0.5, 0.0)
        assert interarrival is EMPTY_SNAPSHOT


# ----------------------------------------------------------------------
# what an idle interval costs: no snapshot, no recompute
# ----------------------------------------------------------------------


class TestIdleWorkCount:
    N = 50

    def test_idle_collects_build_no_snapshot_and_recompute_nothing(self, monkeypatch):
        manager = QoSManager(0, window=3)
        reporters = []
        for index in range(self.N):
            task = _Task(f"V{index % 5}")
            reporter = TaskReporter(task.vertex_name, task.task_id, read_ready=True)
            manager.attach_task(task, reporter)
            channel = _Channel(f"E{index % 5}")
            channel_reporter = ChannelReporter(channel.edge_name, channel.channel_id)
            manager.attach_channel(channel, channel_reporter)
            reporters.append((reporter, channel_reporter))
        for reporter, channel_reporter in reporters:
            reporter.record_service_time(0.004)
            reporter.record_interarrival(0.5)
            channel_reporter.record_channel_latency(0.01)
            channel_reporter.record_output_batch_latency(0.008)
        manager.collect(1.0)
        before = _summary_fields(manager.partial_summary(1.0))  # warms every memo

        snapshots, computes = [], []
        original_compute = WindowedStats._compute

        class CountingSnapshot(StatsSnapshot):
            def __init__(self, *args):
                snapshots.append(args)
                super().__init__(*args)

        monkeypatch.setattr(stats_module, "StatsSnapshot", CountingSnapshot)
        monkeypatch.setattr(
            WindowedStats,
            "_compute",
            lambda self: computes.append(1) or original_compute(self),
        )
        # two idle intervals: the data stays inside the 3-wide windows
        manager.collect(2.0)
        manager.collect(3.0)
        after = _summary_fields(manager.partial_summary(1.0))
        assert snapshots == [] and computes == []
        assert after == before

        # the counters do count: one busy reporter, one more interval
        reporters[0][0].record_service_time(0.004)
        manager.collect(4.0)
        manager.partial_summary(4.0)
        assert len(snapshots) == 1  # service reused as latency; interarrival empty
        assert computes  # the one data point left every window
