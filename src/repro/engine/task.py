"""Runtime tasks: single-server queueing stations executing UDFs.

A :class:`RuntimeTask` is one data-parallel instance of a job vertex
(paper Sec. II-A2). Its life is a producer-consumer loop:

1. pop the oldest item from the bounded input queue (recording channel
   latency for the hop it arrived on);
2. *serve* it for a simulated service time drawn from the UDF (plus any
   accumulated shipping-overhead debt);
3. run the UDF, route the outputs through the output gates' partitioners
   and emit them into channels — blocking if a channel is at capacity
   (backpressure), which stretches the *measured* service time;
4. report the service time (which is also the read-ready task latency,
   Table I) to its QoS reporter, then loop.

Source tasks instead generate items at the rate dictated by a
:class:`~repro.workloads.rates.RateProfile` and are throttled to the
*effective* throughput when backpressure reaches them (paper Sec. III-B).
Windowed (read-write) UDFs are flushed periodically by the task, which
reports read-write task latencies per consumed item.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.engine.batching import (
    AdaptiveDeadlineBatching,
    BatchingStrategy,
    FixedSizeBatching,
    InstantFlush,
)
from repro.engine.channel import NetworkModel, RuntimeChannel
from repro.engine.items import DataItem
from repro.engine.queues import BoundedQueue
from repro.engine.udf import Emit, SourceUDF, UDF, WindowedAggregateUDF
from repro.graphs.partitioning import Partitioner, make_partitioner
from repro.qos.stats import mean_in_order
from repro.simulation.events import Event
from repro.simulation.kernel import PeriodicProcess, SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.qos.reporter import TaskReporter
    from repro.workloads.rates import RateProfile

#: task lifecycle states
CREATED = "created"
RUNNING = "running"
DRAINING = "draining"
STOPPED = "stopped"


class OutputGate:
    """One output gate per outbound job edge of a task.

    The gate owns (a) the live partitioner and the channel list towards
    the consumer tasks of the edge (rebuilt by the scheduler on elastic
    rescaling), and (b) the *output buffer* whose batching strategy
    decides when buffered items are shipped. Buffering at the gate —
    rather than per channel — mirrors Nephele/Flink, where the task
    thread serializes into shared output buffers and shipping overhead is
    paid per wire transfer; it is also what makes deadline batching form
    real batches when per-channel rates are low (paper Sec. III).
    """

    __slots__ = (
        "sim", "producer", "edge_name", "pattern", "key_fn", "strategy",
        "_mode", "network", "_instant_overhead",
        "channels", "partitioner", "_start", "_buffer", "_buffered_bytes",
        "_flush_timer", "_timer_generation", "flushes",
    )

    #: emit() dispatch modes resolved from the strategy type once at
    #: construction (the strategy object is fixed for the gate's lifetime;
    #: set_deadline mutates it in place)
    _INSTANT, _ADAPTIVE, _FIXED = 1, 2, 3

    def __init__(
        self,
        sim: Simulator,
        producer: "RuntimeTask",
        edge_name: str,
        pattern: str,
        strategy: "BatchingStrategy",
        network: NetworkModel,
        key_fn: Optional[Callable[[object], object]] = None,
        start: int = 0,
    ) -> None:
        self.sim = sim
        self.producer = producer
        self.edge_name = edge_name
        self.pattern = pattern
        self.key_fn = key_fn
        self.strategy = strategy
        strategy_cls = type(strategy)
        if strategy_cls is InstantFlush:
            self._mode = self._INSTANT
        elif strategy_cls is AdaptiveDeadlineBatching:
            self._mode = self._ADAPTIVE
        elif strategy_cls is FixedSizeBatching:
            self._mode = self._FIXED
        else:
            raise TypeError(
                f"unsupported batching strategy {strategy_cls.__name__}: an output "
                "gate ships by InstantFlush, FixedSizeBatching or "
                "AdaptiveDeadlineBatching"
            )
        self.network = network
        #: what one instant flush costs the producer (the network model is
        #: fixed for the gate's lifetime)
        self._instant_overhead = network.shipping_overhead(1)
        self.channels: List[RuntimeChannel] = []
        self.partitioner: Partitioner = make_partitioner(pattern, 1, key_fn, start)
        self._start = start
        self._buffer: List[Tuple[RuntimeChannel, DataItem]] = []
        self._buffered_bytes = 0
        self._flush_timer: Optional[Event] = None
        self._timer_generation = 0
        #: lifetime flush count (tests / recorders)
        self.flushes = 0

    def set_channels(self, channels: Sequence[RuntimeChannel]) -> None:
        """Replace the channel list (rescale); rebuilds the partitioner."""
        self.channels = list(channels)
        fanout = max(1, len(self.channels))
        self.partitioner = make_partitioner(self.pattern, fanout, self.key_fn, self._start)

    # ------------------------------------------------------------------
    # output buffering
    # ------------------------------------------------------------------

    def emit(self, channel: RuntimeChannel, item: DataItem) -> bool:
        """Buffer ``item`` for ``channel``; ``False`` when out of credits."""
        # channel.accept(), inlined for the per-item fast path.
        if channel.closed:
            pass  # closed channels accept (and later drop) everything
        elif channel._outstanding < channel.capacity:
            item.emitted_at = self.sim.now
            channel._outstanding += 1
            channel.items_emitted += 1
        else:
            # Write stall: ship what is buffered (credits may be held by
            # our own buffered items), then retry once. Without this,
            # size-only batching can deadlock against the credit limit.
            if self._buffer:
                self._flush()
                if not channel.accept(item):
                    return False
            else:
                return False
        mode = self._mode
        if mode == 2:  # AdaptiveDeadlineBatching (inlined)
            strategy = self.strategy
            deadline = strategy._deadline
            buffer = self._buffer
            buffer.append((channel, item))
            buffered_bytes = self._buffered_bytes + item.size
            self._buffered_bytes = buffered_bytes
            if deadline <= 0.0 or buffered_bytes >= strategy.buffer_bytes:
                self._flush()
            elif self._flush_timer is None:
                sim = self.sim
                timer = sim._schedule_pooled_at(sim.now + deadline, self._on_flush_timer)
                self._flush_timer = timer
                self._timer_generation = timer.generation
            return True
        if mode == 1:  # InstantFlush: ship without touching the buffer
            if self._buffer:
                self._flush()  # teardown edge: buffered items ship first
            self.flushes += 1
            # self.producer.add_overhead(self._instant_overhead), inlined
            producer = self.producer
            overhead = self._instant_overhead
            producer._overhead_debt += overhead
            producer.busy_time += overhead
            channel.ship((item,), item.size)
            return True
        # FixedSizeBatching: size cap only, never a timer
        self._buffer.append((channel, item))
        buffered_bytes = self._buffered_bytes + item.size
        self._buffered_bytes = buffered_bytes
        if buffered_bytes >= self.strategy.buffer_bytes:
            self._flush()
        return True

    def set_deadline(self, deadline: float) -> None:
        """Re-tune an adaptive strategy's flush deadline (no-op otherwise)."""
        if isinstance(self.strategy, AdaptiveDeadlineBatching):
            self.strategy.set_deadline(deadline)

    def flush_now(self) -> None:
        """Ship whatever is buffered (drain / teardown)."""
        if self._buffer:
            self._flush()

    def discard(self) -> None:
        """Drop the buffered items without shipping (task crash)."""
        timer = self._flush_timer
        if timer is not None:
            # Pooled-event owner contract: only cancel while our handle's
            # generation is current (the kernel recycles fired/cancelled
            # pooled events under a bumped generation).
            if timer.generation == self._timer_generation:
                timer.cancel()
            self._flush_timer = None
        self._buffer = []
        self._buffered_bytes = 0

    def _on_flush_timer(self) -> None:
        self._flush_timer = None
        if self._buffer:
            self._flush()

    def _flush(self) -> None:
        timer = self._flush_timer
        if timer is not None:
            if timer.generation == self._timer_generation:
                timer.cancel()
            self._flush_timer = None
        buffer = self._buffer
        self._buffer = []
        self._buffered_bytes = 0
        self.flushes += 1
        self.producer.add_overhead(self.network.shipping_overhead(len(buffer)))
        if len(buffer) == 1:
            # Dominant case under deadline batching at low per-gate rates:
            # skip the grouping pass entirely.
            channel, item = buffer[0]
            channel.ship((item,), item.size)
            return
        # dicts preserve insertion order, so grouping keeps ship order.
        groups: Dict[int, Tuple[RuntimeChannel, List[DataItem]]] = {}
        for channel, item in buffer:
            entry = groups.get(channel.channel_id)
            if entry is None:
                groups[channel.channel_id] = (channel, [item])
            else:
                entry[1].append(item)
        for channel, items in groups.values():
            channel.ship(items, sum(i.size for i in items))


class RuntimeTask:
    """One parallel task instance of a job vertex."""

    __slots__ = (
        "uid", "sim", "vertex_name", "subtask_index", "task_id", "udf", "rng",
        "item_size", "_service_fn", "_generate", "_complete_bound", "_source_tick_bound",
        "_serving_inline", "_is_windowed",
        "input_queue", "in_channels", "out_gates", "reporter", "state",
        "start_time", "stop_time", "on_stopped", "failed",
        "service_multiplier", "_busy", "_paused_until", "_pop_time",
        "_backlog", "_blocked_on", "_overhead_debt", "_last_enqueue",
        "_window_process", "_window_created", "_drain_probe", "rate_profile",
        "_tick_owed", "process_probe", "service_histogram",
        "items_processed", "items_emitted", "busy_time",
    )

    _ids = 0

    #: states in which an idle task starts on a newly enqueued item
    #: (read by RuntimeChannel._arrive, which cannot import this module)
    _LIVE = (RUNNING, DRAINING)

    def __init__(
        self,
        sim: Simulator,
        vertex_name: str,
        subtask_index: int,
        udf: UDF,
        rng: random.Random,
        queue_capacity: int = 256,
        item_size: int = 256,
    ) -> None:
        RuntimeTask._ids += 1
        self.uid = RuntimeTask._ids
        self.sim = sim
        self.vertex_name = vertex_name
        self.subtask_index = subtask_index
        self.task_id = f"{vertex_name}[{subtask_index}]#{self.uid}"
        self.udf = udf
        self.rng = rng
        self.item_size = item_size
        self._service_fn: Optional[Callable[[object], float]] = None
        self._generate: Optional[Callable] = None  # bound SourceUDF.generate
        self._is_windowed = False
        self.input_queue = BoundedQueue(queue_capacity)
        self.in_channels: List[RuntimeChannel] = []
        self.out_gates: List[OutputGate] = []
        self.reporter: Optional["TaskReporter"] = None
        self.state = CREATED
        self.start_time: Optional[float] = None
        self.stop_time: Optional[float] = None
        self.on_stopped: Optional[Callable[["RuntimeTask"], None]] = None
        #: set by :meth:`fail` — distinguishes a crash from a graceful stop
        self.failed = False

        #: transient service-time multiplier (fault injection: hot-spot
        #: spikes); applied to UDF service times while > 1
        self.service_multiplier = 1.0

        # processing state
        #: bound once: every served item's heap entry carries it
        self._complete_bound = self._complete_service
        #: set while _start_next completes zero-service items in its loop
        self._serving_inline = False
        self._busy = False
        self._paused_until = 0.0
        self._pop_time = 0.0
        self._backlog: Deque[Tuple[OutputGate, RuntimeChannel, DataItem]] = deque()
        self._blocked_on: Optional[RuntimeChannel] = None
        self._overhead_debt = 0.0
        self._last_enqueue: Optional[float] = None
        self._window_process: Optional[PeriodicProcess] = None
        self._window_created: List[float] = []
        self._drain_probe: Optional[PeriodicProcess] = None

        # source state
        self.rate_profile: Optional["RateProfile"] = None
        self._tick_owed = False
        #: bound once: every source tick's heap entry carries it
        self._source_tick_bound = self._source_tick

        #: optional probe called with (elapsed-since-creation, payload) for
        #: every item this task processes; the engine installs one on sink
        #: tasks for end-to-end ground truth, experiments may add others
        self.process_probe: Optional[Callable[[float, object], None]] = None

        #: optional obs histogram receiving every service time (set by the
        #: engine when metrics collection is on)
        self.service_histogram = None

        # accounting (ground truth for recorders)
        self.items_processed = 0
        self.items_emitted = 0
        self.busy_time = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def is_source(self) -> bool:
        """Whether this task generates items rather than consuming them."""
        return isinstance(self.udf, SourceUDF)

    def start(self) -> None:
        """Deploy the task: open the UDF, start window/source processes."""
        if self.state != CREATED:
            raise RuntimeError(f"task {self.task_id} already started")
        self.state = RUNNING
        self.start_time = self.sim.now
        self.udf.open(self)
        self._is_windowed = isinstance(self.udf, WindowedAggregateUDF)
        if self.is_source:
            self._generate = self.udf.generate
        else:
            # Sources never draw service times, and their stream interleaves
            # interval and payload draws — never pre-draw on it.
            self._service_fn = self.udf.make_service_sampler(self.rng)
        if self._is_windowed:
            self._window_process = self.sim.every(self.udf.window, self._flush_window)
        if self.is_source:
            if self.rate_profile is None:
                raise RuntimeError(f"source task {self.task_id} has no rate profile")
            self._schedule_source_tick()

    def begin_drain(self) -> None:
        """Start a graceful stop: finish queued work, then stop.

        The scheduler must already have removed this task from upstream
        partitioners; in-flight batches are still accepted and processed.
        """
        if self.state in (DRAINING, STOPPED):
            return
        self.state = DRAINING
        if self.is_source:
            # Sources have no queued work; stop at once.
            self._finish_stop()
            return
        # Poll for the drain-complete condition; event-driven checks also
        # run opportunistically from the processing loop.
        self._drain_probe = self.sim.every(0.05, self._check_drained)
        self._check_drained()

    def _check_drained(self) -> None:
        if self.state != DRAINING:
            return
        inflight = any(c.outstanding > 0 for c in self.in_channels if not c.closed)
        if (
            not self._busy
            and not self._backlog
            and len(self.input_queue) == 0
            and not inflight
        ):
            self._finish_stop()

    def _finish_stop(self) -> None:
        if self.state == STOPPED:
            return
        self.state = STOPPED
        self.stop_time = self.sim.now
        if self._window_process is not None:
            self._window_process.stop()
            self._window_process = None
        if self._drain_probe is not None:
            self._drain_probe.stop()
            self._drain_probe = None
        for gate in self.out_gates:
            gate.flush_now()
        for channel in self.in_channels:
            channel.close()
        self.udf.close()
        if self.on_stopped is not None:
            self.on_stopped(self)

    def fail(self) -> None:
        """Crash the task abruptly (fault injection / worker loss).

        Unlike :meth:`begin_drain`, nothing is preserved: queued input,
        the emission backlog and buffered output batches are lost, as
        they would be when a JVM process dies. Inbound channels close
        (releasing blocked producers) and ``on_stopped`` fires so the
        scheduler reclaims the slot; the caller decides whether and when
        a replacement task is started.
        """
        if self.state == STOPPED:
            return
        self.failed = True
        self.state = STOPPED
        self.stop_time = self.sim.now
        if self._window_process is not None:
            self._window_process.stop()
            self._window_process = None
        if self._drain_probe is not None:
            self._drain_probe.stop()
            self._drain_probe = None
        # In-memory work dies with the process.
        self._busy = False
        self._backlog = deque()
        self._blocked_on = None
        # Close inbound channels first so their parked batches are dropped
        # rather than re-delivered when the queue drain frees space.
        for channel in self.in_channels:
            channel.close()
        self.input_queue.drain()
        for gate in self.out_gates:
            gate.discard()
        self.udf.close()
        if self.on_stopped is not None:
            self.on_stopped(self)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------

    def pause(self, duration: float) -> None:
        """Suspend item consumption for ``duration`` seconds.

        Used by the state subsystem for checkpoint snapshots and
        migration phases (quiesce/transfer/restore): queued items wait
        out the pause and their latency grows accordingly. An item
        already in service completes normally (quiesce waits for
        in-flight work); overlapping pauses extend, never shorten.
        Sources are unaffected — they consume nothing.
        """
        if duration <= 0 or self.state == STOPPED:
            return
        until = self.sim.now + duration
        if until <= self._paused_until:
            return
        self._paused_until = until
        # Fire-and-forget: the callback guards on the (possibly extended)
        # pause end, so stale kicks are harmless.
        self.sim.schedule_fire(duration, self._resume)

    def _resume(self) -> None:
        if self.state not in (RUNNING, DRAINING):
            return
        if self.sim.now < self._paused_until:
            return  # extended by a later pause; its own kick resumes
        if not self._busy and self._blocked_on is None:
            self._start_next()

    def _start_next(self) -> None:
        if self._serving_inline:
            return  # re-entered from an inline completion's tail; its loop pops next
        sim = self.sim
        now = sim.now
        queue = self.input_queue
        entries = queue._items
        heap = sim._heap
        while True:
            if now < self._paused_until:
                return  # paused (state snapshot/migration); resume kick pending
            if not entries:
                if self.state == DRAINING:
                    self._check_drained()
                return
            # Guard before popping: freeing queue space can deliver a parked
            # batch and re-enter RuntimeChannel._arrive synchronously.
            self._busy = True
            item, channel = entries.popleft()
            if queue._space_listeners:
                queue._notify_space()
            reporter = getattr(channel, "reporter", None)
            if reporter is not None and item.emitted_at is not None:
                reporter.record_channel_latency(now - item.emitted_at)
            self._pop_time = now
            udf_service = self._service_fn(item.payload) * self.service_multiplier
            # Overhead debt was already counted into busy_time when charged;
            # here it only delays the completion.
            service = udf_service + self._overhead_debt
            self._overhead_debt = 0.0
            self.busy_time += udf_service
            if not service >= 0:  # negated, so NaN fails it too
                raise SimulationError(
                    f"task {self.task_id}: service time must be >= 0 (got {service})"
                )
            if service or self.out_gates or (heap and heap[0][0] <= now):
                # sim.schedule_fire(service, self._complete_service, item),
                # inlined: fire-and-forget (the callback guards on state).
                seq = sim._seq
                sim._seq = seq + 1
                heappush(heap, (now + service, seq, self._complete_bound, (item,)))
                if len(heap) > sim._max_heap:
                    sim._max_heap = len(heap)
                return
            # Zero service, no output gates, nothing else due now: the
            # completion event would fire next and push nothing, so finish
            # the item here (DESIGN.md, "Which completions are not events").
            # Loop rather than recurse, so a long queue cannot overflow the
            # stack.
            self._serving_inline = True
            try:
                self._complete_service(item)
            finally:
                self._serving_inline = False
            if self.state not in self._LIVE:
                return

    def _complete_service(self, item: Optional[DataItem] = None) -> None:
        """Finish ``item``'s service: run the UDF, emit, start the next item.

        The one completion tail: with ``item`` None it finishes the item
        whose emission blocked, once its channel frees credits.
        """
        if self.state == STOPPED:
            return  # crashed mid-service; the item is lost
        now = self.sim.now
        if item is not None:
            self.items_processed += 1
            udf = self.udf
            outputs = udf.process(item.payload)
            if self._is_windowed:
                udf.record_consume(now)
                self._window_created.append(item.created_at)
            if self.process_probe is not None:
                self.process_probe(now - item.created_at, item.payload)
            if outputs:
                self._route_outputs(outputs, item.created_at, direct=True)
        if self._backlog:
            if not self._drain_backlog():
                return  # blocked; resumed by _on_unblocked
        else:
            self._blocked_on = None
        if self._busy:
            self._busy = False
            elapsed = now - self._pop_time
            reporter = self.reporter
            if reporter is not None:
                reporter.record_service_time(elapsed)
            if self.service_histogram is not None:
                self.service_histogram.observe(elapsed)
        state = self.state
        if state == DRAINING or (state == RUNNING and self.input_queue._items):
            self._start_next()

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------

    def _route_outputs(
        self, outputs: Iterable[object], created_at: float, direct: bool = False
    ) -> None:
        # ``direct=True`` (service completions, source emits) skips the
        # backlog round-trip when nothing is queued ahead of us and the
        # task is not blocked: identical items in identical order at the
        # same sim time, minus two deque ops per item. Window flushes must
        # NOT use it — their outputs wait in the backlog while a service
        # is in flight (drained by the completion), so emitting them
        # immediately would reorder emissions.
        backlog = self._backlog
        out_gates = self.out_gates
        size = self.item_size
        direct = direct and not backlog and self._blocked_on is None
        for output in outputs:
            if output.__class__ is Emit:
                gates = (out_gates[output.gate],)
                payload = output.payload
            else:
                gates = out_gates
                payload = output
            for gate in gates:
                channels = gate.channels
                if not channels:
                    continue
                for i in gate.partitioner.select(payload):
                    channel = channels[i]
                    item = DataItem(payload, created_at, size)
                    if direct:
                        if channel.closed:
                            continue
                        if gate.emit(channel, item):
                            self.items_emitted += 1
                            continue
                        # Out of credits: queue this item and everything
                        # after it, exactly like _drain_backlog would.
                        direct = False
                        self._blocked_on = channel
                        channel.add_unblock_waiter(self._on_unblocked)
                    backlog.append((gate, channel, item))

    def _drain_backlog(self) -> bool:
        """Emit backlog items in order; returns False if blocked."""
        backlog = self._backlog
        while backlog:
            gate, channel, item = backlog[0]
            if channel.closed:
                backlog.popleft()
                continue
            if not gate.emit(channel, item):
                if self._blocked_on is not channel:
                    self._blocked_on = channel
                    channel.add_unblock_waiter(self._on_unblocked)
                return False
            backlog.popleft()
            self.items_emitted += 1
        self._blocked_on = None
        return True

    def _on_unblocked(self) -> None:
        self._blocked_on = None
        if self.state == STOPPED:
            return
        if self.is_source:
            if not self._drain_backlog():
                return  # blocked again; another waiter is registered
            if self._tick_owed:
                # The owed tick runs now: the backlog is empty and a
                # source is only ever RUNNING or STOPPED.
                self._tick_owed = False
                self._source_tick()
            else:
                # The emission loop stalled while blocked (no tick is
                # pending); resume it from now.
                self._schedule_source_tick()
        else:
            self._complete_service()

    def add_overhead(self, seconds: float) -> None:
        """Charge shipping overhead; consumed before the next service."""
        self._overhead_debt += seconds
        self.busy_time += seconds

    # ------------------------------------------------------------------
    # windowed UDFs
    # ------------------------------------------------------------------

    def _flush_window(self) -> None:
        if self.state not in (RUNNING, DRAINING):
            return
        udf = self.udf
        assert isinstance(udf, WindowedAggregateUDF)
        now = self.sim.now
        outputs = udf.flush()
        consume_times = udf.consume_times_and_clear()
        reporter = self.reporter
        # One predicate picks the latency stream: the reporter's, set from
        # the UDF's latency_mode. A read-ready reporter's latency is its
        # service time.
        if reporter is not None and not reporter.read_ready:
            for t in consume_times:
                reporter.record_task_latency(now - t)
        if outputs:
            if self._window_created:
                created = mean_in_order(self._window_created)
            else:
                created = now
            self._route_outputs(outputs, created)
        self._window_created = []
        if not self._busy and self._blocked_on is None:
            self._drain_backlog()

    # ------------------------------------------------------------------
    # source side
    # ------------------------------------------------------------------

    def _schedule_source_tick(self) -> None:
        if self.state != RUNNING:
            return
        sim = self.sim
        now = sim.now
        interval = self.rate_profile.next_interval(now, self.rng)
        # Shipping overhead keeps the source thread busy; the next item is
        # emitted once the profile interval has elapsed AND the thread is
        # free again (overhead caps the max rate but does not delay
        # emissions below saturation).
        interval = max(interval, self._overhead_debt)
        self._overhead_debt = 0.0
        # sim.schedule_fire(interval, self._source_tick), inlined:
        # fire-and-forget (the callback guards on state).
        if not interval >= 0:  # negated, so NaN fails it too
            raise SimulationError(f"cannot schedule into the past (delay={interval})")
        seq = sim._seq
        sim._seq = seq + 1
        heap = sim._heap
        heappush(heap, (now + interval, seq, self._source_tick_bound, ()))
        if len(heap) > sim._max_heap:
            sim._max_heap = len(heap)

    def _source_tick(self) -> None:
        if self.state != RUNNING:
            return
        if self._backlog:
            # Backpressure reached the source: owe exactly one tick and
            # resume from the unblock (effective < attempted throughput).
            self._tick_owed = True
            return
        now = self.sim.now
        payload = self._generate(now, self.rng)
        self.items_processed += 1
        self._route_outputs((payload,), now, direct=True)
        if self._backlog:
            if not self._drain_backlog():
                return  # blocked; resumed by _on_unblocked
        else:
            self._blocked_on = None
        self._schedule_source_tick()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RuntimeTask({self.task_id}, state={self.state})"
