"""Runtime channels: delivery, network, credit-based backpressure.

A :class:`RuntimeChannel` connects one producer task to one consumer
task. *Buffering and batching happen in the producer's output gate*
(one buffer per task per job edge, see
:class:`repro.engine.task.OutputGate`) — mirroring Nephele/Flink, where
the task thread serializes into shared output buffers and the shipping
overhead (syscalls, headers, interrupts) is paid per wire transfer, not
per logical channel. The channel itself is the unit of *flow control*:

* the consumer grants ``capacity`` credits; the credits in use are
  ``items_emitted - items_delivered``, and the producer's
  :meth:`OutputGate.emit <repro.engine.task.OutputGate.emit>` refuses an
  item when all are in use, blocking the producer;
* shipped batches spend :meth:`NetworkModel.transfer_time` in flight;
* on arrival, items enter the consumer's bounded input queue; when the
  queue is full they park in the channel's pending buffer until space
  frees (queue growth → parked batches → refused emits → blocked
  producer = the paper's backpressure cascade, Sec. III-C).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Callable, Deque, List, Optional, Sequence, TYPE_CHECKING

from repro.engine.items import DataItem
from repro.simulation.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.engine.task import RuntimeTask
    from repro.qos.reporter import ChannelReporter


class NetworkModel:
    """Per-batch network delay and producer-side shipping overhead.

    Parameters
    ----------
    base_latency:
        Fixed per-transfer latency in seconds (propagation + switching).
    bandwidth:
        Link bandwidth in bytes/second (default 1 GBit/s).
    per_batch_overhead / per_item_overhead:
        Producer-side CPU cost of shipping one gate flush / one item
        within it, in seconds. These make instant flushing *expensive per
        item* and batching *cheap per item*, reproducing the paper's
        Sec. III-C throughput gap between configurations.
    """

    def __init__(
        self,
        base_latency: float = 0.0005,
        bandwidth: float = 125_000_000.0,
        per_batch_overhead: float = 0.00004,
        per_item_overhead: float = 0.000002,
    ) -> None:
        # Negated comparisons, so NaN fails them too.
        if not (base_latency >= 0 and bandwidth > 0):
            raise ValueError("need base_latency >= 0 and bandwidth > 0")
        if not (per_batch_overhead >= 0 and per_item_overhead >= 0):
            raise ValueError("shipping overheads must be >= 0")
        self.base_latency = base_latency
        self.bandwidth = bandwidth
        self.per_batch_overhead = per_batch_overhead
        self.per_item_overhead = per_item_overhead

    def transfer_time(self, batch_bytes: int) -> float:
        """In-flight time for a transfer of ``batch_bytes`` bytes."""
        return self.base_latency + batch_bytes / self.bandwidth

    def shipping_overhead(self, batch_items: int) -> float:
        """Producer CPU time consumed by shipping one gate flush."""
        return self.per_batch_overhead + self.per_item_overhead * batch_items


class RuntimeChannel:
    """A point-to-point channel of the runtime graph (paper Sec. II-A2)."""

    __slots__ = (
        "channel_id", "sim", "producer", "consumer", "network", "edge_name",
        "capacity", "reporter", "_pending", "_arrive_bound",
        "_pending_listener_armed", "_unblock_waiters", "closed",
        "items_emitted", "items_delivered", "batches_shipped",
    )

    _ids = 0

    def __init__(
        self,
        sim: Simulator,
        consumer: "RuntimeTask",
        network: NetworkModel,
        edge_name: str,
        capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"channel capacity must be >= 1 (got {capacity})")
        RuntimeChannel._ids += 1
        self.channel_id = RuntimeChannel._ids
        self.sim = sim
        self.producer: Optional["RuntimeTask"] = None  # set by the output gate
        self.consumer = consumer
        self.network = network
        self.edge_name = edge_name
        self.capacity = capacity
        self.reporter: Optional["ChannelReporter"] = None

        self._pending: Deque[DataItem] = deque()
        #: bound once: every shipped batch's heap entry carries it
        self._arrive_bound = self._arrive
        self._pending_listener_armed = False
        self._unblock_waiters: List[Callable[[], None]] = []
        self.closed = False

        #: lifetime counters; while the channel is open, their difference
        #: is the credits in use (accepted, not yet enqueued)
        self.items_emitted = 0
        self.items_delivered = 0
        self.batches_shipped = 0

    # ------------------------------------------------------------------
    # producer side (called by the output gate)
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Items accepted but not yet enqueued at the consumer (0 once closed)."""
        return 0 if self.closed else self.items_emitted - self.items_delivered

    def ship(self, items: Sequence[DataItem], batch_bytes: int) -> None:
        """Put a flushed sub-batch on the wire towards the consumer.

        Ownership: the caller hands ``items`` over and must not mutate the
        container afterwards (the gate always passes a fresh tuple/list).
        """
        if self.closed:
            return
        now = self.sim.now
        if self.reporter is not None:
            for item in items:
                self.reporter.record_output_batch_latency(now - item.emitted_at)
        # self.network.transfer_time(batch_bytes), inlined
        network = self.network
        transfer = network.base_latency + batch_bytes / network.bandwidth
        self.batches_shipped += 1
        # sim.schedule_fire(transfer, self._arrive, items), inlined:
        # fire-and-forget (never cancelled; _arrive drops on closed channels).
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (now + transfer, seq, self._arrive_bound, (items,)))

    def add_unblock_waiter(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired when credits free up."""
        self._unblock_waiters.append(callback)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------

    def _arrive(self, items: Sequence[DataItem] = ()) -> None:
        """Enqueue ``items`` (behind anything parked) at the consumer.

        The one delivery loop: fired by the kernel with a shipped batch,
        re-entered with no items when the full queue frees a slot.
        """
        if self.closed:
            return
        pending = self._pending
        pending.extend(items)
        consumer = self.consumer
        queue = consumer.input_queue
        entries = queue._items
        capacity = queue.capacity
        now = self.sim.now
        live = consumer._LIVE
        # Starting the consumer may synchronously consume (freeing space and
        # re-entering delivery), so every bound below is re-checked per
        # iteration against the shared deque objects.
        while pending:
            if len(entries) >= capacity:
                if not self._pending_listener_armed:
                    self._pending_listener_armed = True
                    queue.add_space_listener(self._on_queue_space)
                return
            item = pending.popleft()
            entries.append((item, self))
            queue.total_enqueued += 1
            # One credit back per delivered item. At most ``capacity`` were
            # in use, so a free one now exists: wake the blocked producers.
            self.items_delivered += 1
            if self._unblock_waiters:
                waiters, self._unblock_waiters = self._unblock_waiters, []
                for waiter in waiters:
                    waiter()
            reporter = consumer.reporter
            if reporter is not None:
                last = consumer._last_enqueue
                if last is not None:
                    reporter.record_interarrival(now - last)
                consumer._last_enqueue = now
            if not consumer._busy and consumer._blocked_on is None and consumer.state in live:
                consumer._start_next()

    def _on_queue_space(self) -> None:
        self._pending_listener_armed = False
        self._arrive()

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Tear the channel down (consumer stopping or producer stopped).

        Parked and in-flight items are discarded; a blocked producer is
        released so draining cannot deadlock.
        """
        if self.closed:
            return
        self.closed = True
        self._pending.clear()
        waiters, self._unblock_waiters = self._unblock_waiters, []
        for waiter in waiters:
            waiter()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        producer = self.producer.task_id if self.producer is not None else "?"
        return (
            f"RuntimeChannel(#{self.channel_id}, {producer}->{self.consumer.task_id}, "
            f"edge={self.edge_name!r})"
        )
