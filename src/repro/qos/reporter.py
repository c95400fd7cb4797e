"""QoS reporters: continuous sampling on tasks and channels.

A :class:`TaskReporter` is attached to every latency-constrained runtime
task and a :class:`ChannelReporter` to every constrained channel. The
hosting component feeds raw samples (the engine calls ``record_*`` from
the hot path); once per measurement interval the QoS manager drains the
buffers into per-stream snapshots (paper: reporters "report to QoS
managers once per measurement interval").

Cost layout: ``record_*`` is bound to a plain ``list.append``, so a sample
costs one C call with no Python frame. :meth:`drain` then runs one
in-frame Welford pass per buffered sample
(:func:`~repro.qos.stats.snapshot_and_clear`); a reporter whose buffers
are all empty returns a shared tuple of the shared empty snapshot and
allocates nothing.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.qos.measurements import ChannelMeasurement, TaskMeasurement
from repro.qos.stats import EMPTY_SNAPSHOT, StatsSnapshot, snapshot_and_clear

_IDLE_TASK = (EMPTY_SNAPSHOT, EMPTY_SNAPSHOT, EMPTY_SNAPSHOT)
_IDLE_CHANNEL = (EMPTY_SNAPSHOT, EMPTY_SNAPSHOT)


class TaskReporter:
    """Accumulates one task's Table-I samples for the current interval.

    ``read_ready`` selects the task-latency definition (paper Sec.
    II-A3). A read-ready task's latency *is* its service time, so its
    host records service times only and :meth:`drain` hands out the one
    service snapshot for both; such a reporter has no
    ``record_task_latency``. A read-write (windowed) task's host records
    its consume-to-flush latencies separately.
    """

    # A read-ready reporter leaves ``record_task_latency`` unset, so it
    # has no such attribute.
    __slots__ = (
        "vertex_name", "task_id", "read_ready", "_task_latency", "_service",
        "_interarrival", "record_task_latency", "record_service_time",
        "record_interarrival",
    )

    def __init__(self, vertex_name: str, task_id: str, read_ready: bool = False) -> None:
        self.vertex_name = vertex_name
        self.task_id = task_id
        self.read_ready = read_ready
        self._task_latency: List[float] = []
        self._service: List[float] = []
        self._interarrival: List[float] = []
        # Hot-path aliases: one sample = one list.append, no Python frame.
        if not read_ready:
            self.record_task_latency = self._task_latency.append
        self.record_service_time = self._service.append
        self.record_interarrival = self._interarrival.append

    def drain(self) -> Tuple[StatsSnapshot, StatsSnapshot, StatsSnapshot]:
        """Snapshot and empty the interval buffers.

        Returns ``(task_latency, service_time, interarrival)``.
        """
        latency = self._task_latency
        service = self._service
        interarrival = self._interarrival
        if not (service or interarrival or latency):
            return _IDLE_TASK
        service_snap = snapshot_and_clear(service)
        return (
            service_snap if self.read_ready else snapshot_and_clear(latency),
            service_snap,
            snapshot_and_clear(interarrival),
        )

    def flush(self, now: float) -> TaskMeasurement:
        """:meth:`drain`, wrapped into a timestamped measurement record."""
        return TaskMeasurement(self.vertex_name, self.task_id, now, *self.drain())


class ChannelReporter:
    """Accumulates one channel's Table-I samples for the current interval."""

    __slots__ = (
        "edge_name", "channel_id", "_latency", "_obl",
        "record_channel_latency", "record_output_batch_latency",
    )

    def __init__(self, edge_name: str, channel_id: int) -> None:
        self.edge_name = edge_name
        self.channel_id = channel_id
        self._latency: List[float] = []
        self._obl: List[float] = []
        # Hot-path aliases (see TaskReporter.__init__).
        self.record_channel_latency = self._latency.append
        self.record_output_batch_latency = self._obl.append

    def drain(self) -> Tuple[StatsSnapshot, StatsSnapshot]:
        """Snapshot and empty the interval buffers.

        Returns ``(channel_latency, output_batch_latency)``.
        """
        latency = self._latency
        obl = self._obl
        if not (latency or obl):
            return _IDLE_CHANNEL
        return snapshot_and_clear(latency), snapshot_and_clear(obl)

    def flush(self, now: float) -> ChannelMeasurement:
        """:meth:`drain`, wrapped into a timestamped measurement record."""
        return ChannelMeasurement(self.edge_name, self.channel_id, now, *self.drain())
