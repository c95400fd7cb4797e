"""Regression tests pinning the fast-path kernel's ordering semantics.

The fast path keeps two heap-entry shapes (plain tuples and cancellable
events), withdraws owner-guarded plain entries lazily, and walks batched
arrival sequences — all of which must preserve the kernel's core contract:
events fire in ``(time, seq)`` order, i.e. simultaneous events fire in
the order they were *scheduled*, and cancellation or re-scheduling never
perturbs the order of surviving events.
"""

from __future__ import annotations

import math
import traceback

import pytest

from repro.simulation.kernel import SimulationError, Simulator


class TestSimultaneousOrdering:
    def test_mixed_shapes_fire_in_schedule_order(self, sim):
        """schedule / schedule_fire / batch steps at one instant fire by seq."""
        fired = []
        sim.schedule(1.0, fired.append, "handle-0")
        sim.schedule_fire(1.0, fired.append, "fire-1")
        sim.schedule_batch([1.0], fired.append, "batch-2")
        sim.schedule_at(1.0, fired.append, "handle-3")
        sim.schedule_fire(1.0, fired.append, "fire-4")
        sim.run()
        assert fired == ["handle-0", "fire-1", "batch-2", "handle-3", "fire-4"]

    def test_cancel_and_reschedule_keeps_late_seq(self, sim):
        """Re-scheduling after a cancel fires at the *new* schedule position.

        Regression: a cancelled event's slot must not be inherited by its
        replacement — the replacement gets a fresh (later) seq, so
        same-time peers scheduled in between fire first.
        """
        fired = []
        first = sim.schedule(1.0, fired.append, "original")
        sim.schedule(1.0, fired.append, "peer")
        first.cancel()
        sim.schedule(1.0, fired.append, "rescheduled")
        sim.run()
        assert fired == ["peer", "rescheduled"]

    def test_cancelled_events_do_not_count_or_advance_clock(self, sim):
        handle = sim.schedule(5.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        handle.cancel()
        sim.run()
        assert sim.fired_events == 1
        assert sim.now == 1.0

    def test_callback_scheduling_at_now_fires_after_pending_peers(self, sim):
        """An event scheduled from a callback at t=now fires after peers
        already pending at that instant (its seq is larger)."""
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule(0.0, fired.append, "spawned")

        sim.schedule(1.0, spawner)
        sim.schedule(1.0, fired.append, "peer")
        sim.run()
        assert fired == ["spawner", "peer", "spawned"]


class TestEventPool:
    """The kernel keeps no event pool: a recurrence's firings are plain
    heap entries, and ``stop()`` withdraws the pending one."""

    def test_stop_cancels_pending_pooled_event(self, sim):
        ticks = []
        proc = sim.every(1.0, ticks.append, 1)
        sim.run(until=1.5)
        proc.stop()
        sim.run(until=10.0)
        assert ticks == [1]
        assert proc.stopped
        # the withdrawn firing neither fires nor counts
        assert sim.fired_events == 1
        assert sim.pending_events == 0


class TestBatchScheduleSemantics:
    def test_empty_batch_is_immediately_stopped(self, sim):
        batch = sim.schedule_batch([], lambda: None)
        assert batch.stopped
        assert batch.remaining == 0
        sim.run()
        assert sim.fired_events == 0

    def test_remaining_counts_down(self, sim):
        batch = sim.schedule_batch([1.0, 2.0, 3.0], lambda: None)
        assert batch.remaining == 3
        sim.run(until=1.5)
        assert batch.remaining == 2
        sim.run(until=10.0)
        assert batch.remaining == 0
        assert batch.stopped

    def test_non_monotonic_times_raise_when_reached(self, sim):
        sim.schedule_batch([2.0, 1.0], lambda: None)
        with pytest.raises(SimulationError):
            sim.run()

    def test_batch_times_in_past_raise(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_batch([1.0], lambda: None)

    def test_stop_during_final_step_is_safe(self, sim):
        fired = []
        batch = None

        def last():
            fired.append(sim.now)
            batch.stop()

        batch = sim.schedule_batch([1.0], last)
        sim.run()
        assert fired == [1.0]
        assert batch.stopped


class TestRunSemantics:
    def test_fired_events_counts_all_shapes(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule_fire(2.0, lambda: None)
        sim.schedule_batch([3.0, 4.0], lambda: None)
        sim.run()
        assert sim.fired_events == 4

    def test_until_clock_advances_past_last_event(self, sim):
        sim.schedule_fire(1.0, lambda: None)
        sim.run(until=7.5)
        assert sim.now == 7.5
        assert sim.fired_events == 1

    def test_until_excludes_strictly_later_events(self, sim):
        fired = []
        sim.schedule_fire(1.0, fired.append, "in")
        sim.schedule_fire(2.0, fired.append, "boundary")
        sim.schedule_fire(2.0000001, fired.append, "out")
        sim.run(until=2.0)
        assert fired == ["in", "boundary"]

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected_on_fire_path(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_fire(-0.1, lambda: None)

    def test_schedule_fire_returns_no_handle(self, sim):
        assert sim.schedule_fire(1.0, lambda: None) is None


class TestWithdrawnEntries:
    """A stopped recurrence's or batch's pending step stays on the heap,
    fires nothing and is not counted; ``fired_events`` is exact at every
    instant, mid-callback included."""

    def test_withdrawn_step_is_pending_until_popped(self, sim):
        batch = sim.schedule_batch([1.0, 2.0], lambda: None)
        sim.run(until=1.5)
        batch.stop()
        assert sim.pending_events == 1
        assert sim.fired_events == 1
        sim.run(until=3.0)
        assert sim.pending_events == 0
        assert sim.fired_events == 1

    def test_fired_events_counts_the_running_callback(self, sim):
        seen = []
        sim.schedule_fire(1.0, lambda: seen.append(sim.fired_events))
        sim.schedule(2.0, lambda: seen.append(sim.fired_events))
        sim.run()
        assert seen == [1, 2]

    def test_unbounded_run_clock_rests_at_the_last_popped_plain_entry(self, sim):
        """The one clock difference of lazy withdrawal: an unbounded run
        whose last popped entry is a stopped recurrence's step ends at that
        step's time. A cancelled handle never moves the clock, and a
        bounded run ends at ``until`` either way."""
        proc = sim.every(1.0, lambda: None)
        sim.schedule(2.5, proc.stop)
        sim.run()
        assert sim.now == 3.0
        assert sim.fired_events == 3

    def test_max_heap_covers_pushes_outside_a_run(self, sim):
        for delay in (1.0, 2.0, 3.0):
            sim.schedule_fire(delay, lambda: None)
        assert sim.max_heap_size == 3
        sim.run()
        assert sim.max_heap_size == 3
        assert sim.pending_events == 0


class TestEveryRejectsNonFinite:
    """An infinite interval or start delay would fire forever at
    ``now = inf``; a NaN one would corrupt the heap order. Each is
    rejected before anything is scheduled, naming the argument."""

    @pytest.mark.parametrize("interval", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_interval(self, sim, interval):
        with pytest.raises(SimulationError, match="interval"):
            sim.every(interval, lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("start_delay", [math.inf, math.nan, -1.0])
    def test_bad_start_delay(self, sim, start_delay):
        with pytest.raises(SimulationError, match="start_delay"):
            sim.every(1.0, lambda: None, start_delay=start_delay)
        assert sim.pending_events == 0

    def test_zero_start_delay_fires_at_now(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now), start_delay=0.0)
        sim.run(until=2.5)
        proc.stop()
        assert times == [0.0, 1.0, 2.0]


class TestLabelledFailures:
    """An exception escaping a callback leaves ``run()`` as it was raised,
    with one note naming the callback, its owner, the time and the seq."""

    def test_every_callback_failure_names_the_callback(self, sim):
        def explode():
            raise KeyError("tick")

        sim.every(2.0, explode)
        with pytest.raises(KeyError) as info:
            sim.run()
        exc = info.value
        assert exc.args == ("tick",)
        assert exc.__notes__ == [
            "raised by PeriodicProcess._fire of PeriodicProcess("
            "TestLabelledFailures.test_every_callback_failure_names_the_callback"
            ".<locals>.explode, every 2.0, stopped=False) at t=2.0, entry seq 0"
        ]
        # the traceback still ends in the callback that raised
        assert traceback.extract_tb(exc.__traceback__)[-1].name == "explode"

    def test_handle_failure_names_event_callback(self, sim):
        def fail(x):
            raise ValueError(x)

        sim.schedule_fire(1.0, lambda: None)
        sim.schedule(3.0, fail, "bad")
        with pytest.raises(ValueError, match="bad") as info:
            sim.run()
        assert info.value.__notes__ == [
            "raised by TestLabelledFailures.test_handle_failure_names_event_callback"
            ".<locals>.fail at t=3.0, entry seq 1"
        ]
        assert not sim._running


class TestEventHandle:
    def test_event_ordering_by_time_then_seq(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(1.0, fired.append, "b")  # same time: scheduling order
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()
        assert sim.fired_events == 0
