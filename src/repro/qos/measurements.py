"""Per-interval measurement records (paper Table I).

A reporter's ``flush(now)`` freezes one measurement interval into one of
these records: the interval's snapshots plus who measured them and when.
(The QoS manager takes the bare snapshots from ``drain()`` instead.)
Snapshots carry counts so that downstream aggregation can weight
correctly.
"""

from __future__ import annotations

from repro.qos.stats import StatsSnapshot


class TaskMeasurement:
    """One task's Table-I measurements for one measurement interval.

    Attributes
    ----------
    task_latency:
        Snapshot of task latency ``l_v`` samples — read-ready (then the
        very ``service_time`` snapshot) or read-write, depending on the
        task's UDF.
    service_time:
        Snapshot of service time ``S_v`` samples (mean and variance feed
        Kingman's formula via ``c_S``).
    interarrival:
        Snapshot of interarrival time ``A_v`` samples (``λ_v = 1/Ā_v``).
    """

    __slots__ = ("vertex_name", "task_id", "timestamp", "task_latency", "service_time", "interarrival")

    def __init__(
        self,
        vertex_name: str,
        task_id: str,
        timestamp: float,
        task_latency: StatsSnapshot,
        service_time: StatsSnapshot,
        interarrival: StatsSnapshot,
    ) -> None:
        self.vertex_name = vertex_name
        self.task_id = task_id
        self.timestamp = timestamp
        self.task_latency = task_latency
        self.service_time = service_time
        self.interarrival = interarrival

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TaskMeasurement({self.task_id}, t={self.timestamp:.1f}, "
            f"S̄={self.service_time.mean:.6f}, Ā={self.interarrival.mean:.6f})"
        )


class ChannelMeasurement:
    """One channel's Table-I measurements for one measurement interval.

    ``channel_latency`` is ``l_e`` (emit → consume) and
    ``output_batch_latency`` is ``obl_e`` (emit → ship); by construction
    ``obl_e <= l_e`` in the mean.
    """

    __slots__ = ("edge_name", "channel_id", "timestamp", "channel_latency", "output_batch_latency")

    def __init__(
        self,
        edge_name: str,
        channel_id: int,
        timestamp: float,
        channel_latency: StatsSnapshot,
        output_batch_latency: StatsSnapshot,
    ) -> None:
        self.edge_name = edge_name
        self.channel_id = channel_id
        self.timestamp = timestamp
        self.channel_latency = channel_latency
        self.output_batch_latency = output_batch_latency

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ChannelMeasurement({self.edge_name}#{self.channel_id}, "
            f"l̄={self.channel_latency.mean:.6f})"
        )
