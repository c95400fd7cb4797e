"""Regression tests pinning the fast-path kernel's ordering semantics.

The fast path keeps two heap-entry shapes (fire-and-forget tuples and
cancellable events), recycles pooled events, and walks batched arrival
sequences — all of which must preserve the kernel's core contract:
events fire in ``(time, seq)`` order, i.e. simultaneous events fire in
the order they were *scheduled*, and cancellation or re-scheduling never
perturbs the order of surviving events.
"""

from __future__ import annotations

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
    def test_periodic_events_are_recycled(self, sim):
        ticks = []
        proc = sim.every(1.0, ticks.append, 1)
        sim.run(until=5.5)
        proc.stop()
        assert ticks == [1, 1, 1, 1, 1]
        # The recurrence reuses pool events instead of allocating per tick.
        assert sim.pooled_events <= 2

    def test_stale_handle_cannot_cancel_recycled_event(self, sim):
        """A handle kept across recycling must not kill the new occupant.

        The kernel's owner contract: after a pooled event fires, holders
        cancel only if the stored generation still matches. After two
        ticks the recurrence has recycled its first event object into the
        pending third tick, so a stale owner's guard must refuse.
        """
        ticks = []
        proc = sim.every(1.0, ticks.append, "a")
        stale = proc._event
        stale_generation = stale.generation
        sim.run(until=2.5)
        assert ticks == ["a", "a"]
        # The first event object was recycled and is live again, bumped:
        assert stale is proc._event
        assert stale.generation != stale_generation
        # A stale owner applying the generation guard cancels nothing:
        if stale.generation == stale_generation:
            stale.cancel()
        sim.run(until=3.5)
        assert ticks == ["a", "a", "a"]
        proc.stop()

    def test_stop_cancels_pending_pooled_event(self, sim):
        ticks = []
        proc = sim.every(1.0, ticks.append, 1)
        sim.run(until=1.5)
        proc.stop()
        sim.run(until=10.0)
        assert ticks == [1]
        assert proc.stopped

    def test_pool_reuse_bumps_generation(self, sim):
        """The recurrence alternates two pool objects; reuse bumps generation.

        A fired event is recycled only *after* its callback returns, so
        scheduling the next tick from inside the callback allocates a
        second object; from then on the two alternate through the pool.
        """
        proc = sim.every(1.0, lambda: None)
        first = proc._event
        g0 = first.generation
        sim.run(until=1.5)
        second = proc._event
        assert second is not first  # first was not yet poolable mid-callback
        assert first.generation == g0  # generation bumps at reuse, not recycle
        sim.run(until=2.5)
        assert proc._event is first
        assert first.generation == g0 + 1
        proc.stop()

    def test_pooled_flag_not_set_on_public_handles(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pooled is False
        sim.run()
        assert sim.pooled_events == 0


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
