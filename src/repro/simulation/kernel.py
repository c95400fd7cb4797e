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
    A *plain* entry, with no handle to cancel. The public
    :meth:`Simulator.schedule_fire` pushes one, and so does everything
    the engine schedules for itself: service completions, channel
    arrivals, source ticks, output-gate flush deadlines,
    :meth:`Simulator.every` recurrences and :meth:`Simulator
    .schedule_batch` steps. Each owner guards its own callback: a task
    or channel checks its state, a stopped recurrence and a disarmed
    deadline return at once and count themselves as *withdrawn*.

``(time, seq, event)``
    The cancellable path (:meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`): a cancelled
    :class:`~repro.simulation.events.Event` is dropped when it reaches
    the head of the heap, is never counted and never moves the clock.

A withdrawn entry stays on the heap until it is popped, so
:attr:`~Simulator.pending_events` counts it until then. Every push takes
a ``seq``, so :attr:`~Simulator.fired_events` is derived rather than
counted per event: pushes, minus entries still pending, minus popped
entries that fired nothing. :meth:`Simulator.run` takes the heap's
high-water mark once per pop; only callbacks push during a run, so the
heap is largest just before a pop.

Every entry point rejects a time before ``now`` *and* a NaN time (the
guards are negated comparisons, which NaN fails): one NaN key would
break the heap order for every later event.

An exception that escapes a callback leaves :meth:`Simulator.run`
unchanged in type, arguments and traceback, with one note naming the
callback, its owner, the virtual time and the entry's ``seq``.

Not every completion is an event. A task with no output gates whose
item takes exactly zero service finishes it inside the callback that
started it, when nothing else is due at ``now`` (DESIGN.md, "Which
completions are not events"). The order of everything observable is
unchanged; only :attr:`Simulator.fired_events` counts one event fewer
per such item.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Sequence

from repro.simulation.events import Event


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


def _label_failure(exc: BaseException, entry: tuple, now: float) -> None:
    """Attach a note naming the callback of ``entry`` that raised ``exc``."""
    callback = entry[2] if len(entry) == 4 else entry[2].callback
    name = getattr(callback, "__qualname__", None) or repr(callback)
    owner = getattr(callback, "__self__", None)
    where = "" if owner is None else f" of {owner!r}"
    note = f"raised by {name}{where} at t={now!r}, entry seq {entry[1]}"
    notes = getattr(exc, "__notes__", None)
    if notes is None:  # the list add_note() appends to; Python < 3.11 lacks it
        exc.__notes__ = notes = []
    notes.append(note)


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
        # entries: (time, seq, callback, args) plain
        #       or (time, seq, Event)          cancellable
        self._heap: List[tuple] = []
        #: entries pushed so far; owners that push inline take it too
        self._seq = 0
        #: current virtual time in seconds — a plain attribute (read from
        #: every hot callback) rather than a property; treat as read-only
        self.now = 0.0
        self._running = False
        #: popped entries that fired nothing (a cancelled handle, a stopped
        #: recurrence's step, a disarmed flush deadline); owners of plain
        #: entries add theirs
        self._withdrawn = 0
        self._max_heap = 0

    @property
    def pending_events(self) -> int:
        """Number of entries in the heap (including withdrawn ones)."""
        return len(self._heap)

    @property
    def fired_events(self) -> int:
        """Total number of events fired so far (excludes withdrawn ones)."""
        return self._seq - len(self._heap) - self._withdrawn

    @property
    def max_heap_size(self) -> int:
        """High-water mark of the event heap over the run so far."""
        return max(self._max_heap, len(self._heap))

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Returns the :class:`Event` handle, which may be cancelled.
        ``delay`` must be non-negative.
        """
        if not delay >= 0:  # negated, so NaN fails it too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute virtual ``time``."""
        if not time >= self.now:  # negated, so NaN fails it too
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_fire(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget: like :meth:`schedule` but returns no handle.

        The scheduled callback cannot be cancelled; callbacks that may
        outlive their component must guard internally (the engine's hot
        path callbacks all check task/channel state first). Skipping the
        handle keeps the per-record path allocation-free apart from the
        heap tuple itself.
        """
        if not delay >= 0:  # negated, so NaN fails it too
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self.now + delay, seq, callback, args))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation.

        If ``until`` is given, stop once the next event would fire strictly
        after ``until`` and advance the clock to ``until``. If omitted, run
        until the event heap is exhausted; the clock then rests at the
        last popped plain entry, which may be a withdrawn one.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if until is None:
            horizon = math.inf
        elif until != until:  # NaN compares false with every event time
            raise SimulationError("run(until=nan) would never stop")
        else:
            horizon = until
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        max_heap = self._max_heap
        entry: tuple = ()
        try:
            while heap:
                size = len(heap)
                if size > max_heap:
                    max_heap = self._max_heap = size
                entry = pop(heap)
                if len(entry) == 4:
                    if entry[0] > horizon:
                        heapq.heappush(heap, entry)  # due after this run
                        break
                    self.now = entry[0]
                    entry[2](*entry[3])
                    continue
                event = entry[2]
                if event.cancelled:
                    self._withdrawn += 1  # dropped wherever it is due
                    continue
                if entry[0] > horizon:
                    heapq.heappush(heap, entry)
                    break
                self.now = entry[0]
                event.callback(*event.args)
        except Exception as exc:
            _label_failure(exc, entry, self.now)
            raise
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

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
        ``interval`` must be finite and positive and ``start_delay``
        finite and non-negative: an infinite one would fire forever at
        ``now = inf``.
        """
        if not 0 < interval < math.inf:  # negated, so NaN fails it too
            raise SimulationError(
                f"every(): interval must be finite and positive (got {interval})"
            )
        first = interval if start_delay is None else start_delay
        if not 0 <= first < math.inf:
            raise SimulationError(
                f"every(): start_delay must be finite and non-negative (got {first})"
            )
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
        sequence with one plain heap entry at a time instead of ``k``
        individually allocated events. Firing times and the
        ``(time, seq)`` order among simultaneous events are exactly what
        ``k`` successive ``schedule_at`` calls (each made when the
        previous firing completes) would produce.

        ``times`` must be non-decreasing and must not start in the past;
        a violation raises :class:`SimulationError` when the offending
        step is scheduled. Returns a handle whose :meth:`BatchSchedule
        .stop` withdraws the remaining firings.
        """
        return BatchSchedule(self, times, callback, args)


class PeriodicProcess:
    """Handle for a recurring callback created by :meth:`Simulator.every`.

    Each firing is a plain heap entry for :meth:`_fire`; :meth:`stop`
    only sets a flag, and the pending entry pops as a withdrawn no-op.
    """

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
        self._push(sim.now + first_delay)

    def _push(self, time: float) -> None:
        # every() validated the interval and start delay, so ``time`` is
        # finite and not before ``now``
        sim = self._sim
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._heap, (time, seq, self._fire, ()))

    def _fire(self) -> None:
        if self._stopped:
            self._sim._withdrawn += 1
            return
        self._callback(*self._args)
        if not self._stopped:
            self._push(self._sim.now + self.interval)

    def stop(self) -> None:
        """Stop the recurrence; the pending firing is withdrawn."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """Whether :meth:`stop` has been called."""
        return self._stopped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        name = getattr(self._callback, "__qualname__", repr(self._callback))
        return f"PeriodicProcess({name}, every {self.interval}, stopped={self._stopped})"


class BatchSchedule:
    """Handle for a precomputed firing sequence (batched-arrival mode)."""

    __slots__ = ("_sim", "_times", "_index", "_callback", "_args", "_stopped")

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
        if len(times) > 0:
            self._push(times[0])
        else:
            self._stopped = True

    def _push(self, time: float) -> None:
        sim = self._sim
        if not time >= sim.now:  # negated, so NaN fails it too
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={sim.now})"
            )
        seq = sim._seq
        sim._seq = seq + 1
        heapq.heappush(sim._heap, (time, seq, self._fire, ()))

    def _fire(self) -> None:
        if self._stopped:
            self._sim._withdrawn += 1
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

    def stop(self) -> None:
        """Withdraw the remaining firings (the pending one included)."""
        self._stopped = True

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
