"""The discrete-event simulation kernel.

The :class:`Simulator` maintains a virtual clock and a binary heap of
pending events. Components of the simulated stream processing engine
(tasks, channels, the elastic scaler, workload sources, ...) schedule
callbacks on the shared simulator; the kernel fires them in
non-decreasing time order.

The kernel is single-threaded and deterministic: events scheduled for the
same instant fire in the order they were scheduled.

Fast path
---------
Heap entries are plain tuples keyed by ``(time, seq)``, so heap sifting
compares tuple prefixes in C instead of calling ``Event.__lt__`` per
comparison. Two entry shapes share the heap (``seq`` is unique per
simulator, so comparisons never reach the third element):

``(time, seq, callback, args)``
    The *fire-and-forget* path (:meth:`Simulator.schedule_fire`): no
    :class:`~repro.simulation.events.Event` handle is allocated and the
    event cannot be cancelled. The engine's per-record hot path (service
    completions, channel arrivals, source ticks) uses this shape — those
    callbacks already guard against stopped/closed receivers, which is
    what cancellation was for.

``(time, seq, event)``
    The cancellable path (:meth:`Simulator.schedule`). Events whose
    ``pooled`` flag is set are recycled into a free list after firing
    (with a ``generation`` bump so stale handles can detect the reuse);
    the kernel only pools events whose handles it controls —
    :class:`PeriodicProcess` firings and :class:`BatchSchedule` steps.

Batched arrivals (:meth:`Simulator.schedule_batch`) walk a precomputed
time sequence with one recycled pooled event instead of allocating one
event per record; each step still fires at its own time with a fresh
``seq``, preserving the ``(time, seq)`` total order.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Sequence

from repro.simulation.events import Event


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        # entries: (time, seq, callback, args) fire-and-forget
        #       or (time, seq, Event)          cancellable
        self._heap: List[tuple] = []
        self._seq = 0
        #: current virtual time in seconds — a plain attribute (read from
        #: every hot callback) rather than a property; treat as read-only
        self.now = 0.0
        self._running = False
        self._fired_events = 0
        self._max_heap = 0
        self._pool: List[Event] = []

    @property
    def pending_events(self) -> int:
        """Number of events in the heap (including cancelled ones)."""
        return len(self._heap)

    @property
    def fired_events(self) -> int:
        """Total number of events fired so far (excludes cancelled)."""
        return self._fired_events

    @property
    def max_heap_size(self) -> int:
        """High-water mark of the event heap over the run so far."""
        return self._max_heap

    @property
    def pooled_events(self) -> int:
        """Size of the event free list (introspection for tests/bench)."""
        return len(self._pool)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event` handle, which may be cancelled.
        ``delay`` must be non-negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self._max_heap:
            self._max_heap = len(heap)
        return event

    def schedule_fire(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget: like :meth:`schedule` but returns no handle.

        The scheduled callback cannot be cancelled; callbacks that may
        outlive their component must guard internally (the engine's hot
        path callbacks all check task/channel state first). Skipping the
        handle keeps the per-record path allocation-free apart from the
        heap tuple itself.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, callback, args))
        if len(heap) > self._max_heap:
            self._max_heap = len(heap)

    def _schedule_pooled_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Internal: cancellable scheduling with a pool-recycled event.

        Owner contract: after the event fires or is cancelled, the caller
        must drop (or generation-check) its handle — the kernel reuses
        the object for later schedulings.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.generation += 1
        else:
            event = Event(time, seq, callback, args, pooled=True)
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self._max_heap:
            self._max_heap = len(heap)
        return event

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        If ``until`` is given, stop once the next event would fire strictly
        after ``until`` and advance the clock to ``until``. If omitted, run
        until the event heap is exhausted.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until != until:  # NaN compares false with every event time
            raise SimulationError("run(until=nan) would never stop")
        self._running = True
        try:
            if until is None:
                self._run_unbounded()
            else:
                self._run_until(until)
        finally:
            self._running = False

    def _run_unbounded(self) -> None:
        # The hot loop: locals for everything touched per event, and the
        # (time, seq, callback, args) shape handled without indirection.
        heap = self._heap
        pop = heapq.heappop
        pool = self._pool
        while heap:
            entry = pop(heap)
            if len(entry) == 4:
                self.now = entry[0]
                self._fired_events += 1
                entry[2](*entry[3])
                continue
            event = entry[2]
            if event.cancelled:
                if event.pooled:
                    self._recycle(pool, event)
                continue
            self.now = entry[0]
            self._fired_events += 1
            event.callback(*event.args)
            if event.pooled:
                self._recycle(pool, event)

    def _run_until(self, until: float) -> None:
        # _run_unbounded plus the horizon check: an event strictly after
        # ``until`` stays on the heap for the next run() call.
        heap = self._heap
        pop = heapq.heappop
        pool = self._pool
        while heap:
            entry = heap[0]
            time = entry[0]
            if len(entry) == 4:
                if time > until:
                    break
                pop(heap)
                self.now = time
                self._fired_events += 1
                entry[2](*entry[3])
            else:
                event = entry[2]
                if event.cancelled:
                    pop(heap)
                    if event.pooled:
                        self._recycle(pool, event)
                    continue
                if time > until:
                    break
                pop(heap)
                self.now = time
                self._fired_events += 1
                event.callback(*event.args)
                if event.pooled:
                    self._recycle(pool, event)
        if self.now < until:
            self.now = until

    @staticmethod
    def _recycle(pool: List[Event], event: Event) -> None:
        # Break reference cycles / drop payloads before pooling; the
        # generation is bumped at *reuse* so a just-fired handle still
        # reports the generation its owner saw.
        event.callback = None
        event.args = ()
        pool.append(event)

    # ------------------------------------------------------------------
    # recurrences
    # ------------------------------------------------------------------

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start_delay: Optional[float] = None,
    ) -> "PeriodicProcess":
        """Fire ``callback(*args)`` every ``interval`` seconds.

        The first firing happens after ``start_delay`` (defaults to
        ``interval``). Returns a :class:`PeriodicProcess` handle whose
        :meth:`~PeriodicProcess.stop` method halts the recurrence.
        """
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive (got {interval})")
        first = interval if start_delay is None else start_delay
        return PeriodicProcess(self, interval, callback, args, first)

    def schedule_batch(
        self,
        times: Sequence[float],
        callback: Callable[..., Any],
        *args: Any,
    ) -> "BatchSchedule":
        """Fire ``callback(*args)`` once at each absolute time in ``times``.

        The batched-arrival mode: where a distribution allows precomputing
        the next *k* firing times (deterministic rates, pre-drawn RNG
        intervals, trace replay), one :class:`BatchSchedule` walks the
        sequence with a single recycled pool event instead of ``k``
        individually allocated events. Firing times and the
        ``(time, seq)`` order among simultaneous events are exactly what
        ``k`` successive ``schedule_at`` calls (each made when the
        previous firing completes) would produce.

        ``times`` must be non-decreasing and must not start in the past;
        a violation raises :class:`SimulationError` when the offending
        step is scheduled. Returns a handle whose :meth:`BatchSchedule
        .stop` cancels the remaining firings.
        """
        return BatchSchedule(self, times, callback, args)


class PeriodicProcess:
    """Handle for a recurring callback created by :meth:`Simulator.every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        first_delay: float,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._stopped = False
        event = sim._schedule_pooled_at(sim.now + first_delay, self._fire)
        self._event: Optional[Event] = event
        self._generation = event.generation

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        if not self._stopped:
            event = self._sim._schedule_pooled_at(self._sim.now + self.interval, self._fire)
            self._event = event
            self._generation = event.generation

    def stop(self) -> None:
        """Stop the recurrence; a pending firing is cancelled."""
        self._stopped = True
        event = self._event
        if event is not None and event.generation == self._generation:
            event.cancel()
        self._event = None

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped


class BatchSchedule:
    """Handle for a precomputed firing sequence (batched-arrival mode)."""

    __slots__ = ("_sim", "_times", "_index", "_callback", "_args", "_stopped",
                 "_event", "_generation")

    def __init__(
        self,
        sim: Simulator,
        times: Sequence[float],
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self._sim = sim
        self._times = times
        self._index = 0
        self._callback = callback
        self._args = args
        self._stopped = False
        self._event: Optional[Event] = None
        self._generation = 0
        if len(times) > 0:
            self._push(times[0])
        else:
            self._stopped = True

    def _push(self, time: float) -> None:
        event = self._sim._schedule_pooled_at(time, self._fire)
        self._event = event
        self._generation = event.generation

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback(*self._args)
        self._index += 1
        if self._stopped:
            return
        times = self._times
        if self._index < len(times):
            self._push(times[self._index])
        else:
            self._stopped = True
            self._event = None

    def stop(self) -> None:
        """Cancel the remaining firings (the pending one included)."""
        self._stopped = True
        event = self._event
        if event is not None and event.generation == self._generation:
            event.cancel()
        self._event = None

    @property
    def stopped(self) -> bool:
        """Whether the walk finished or was stopped."""
        return self._stopped

    @property
    def remaining(self) -> int:
        """Firings still pending (0 once stopped or exhausted)."""
        if self._stopped:
            return 0
        return len(self._times) - self._index
