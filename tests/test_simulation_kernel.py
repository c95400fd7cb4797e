"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simulation.events import Event
from repro.simulation.kernel import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(3.0, fired.append, "last")
        sim.run()
        assert fired == ["early", "late", "last"]

    def test_simultaneous_events_fire_in_schedule_order(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(5.5, lambda: None)
        sim.run()
        assert sim.now == 5.5

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(4.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 4.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_into_past_rejected(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_fires_at_current_time(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_callback_args_passed_through(self, sim):
        received = []
        sim.schedule(1.0, lambda a, b: received.append((a, b)), 1, "two")
        sim.run()
        assert received == [(1, "two")]

    def test_fired_events_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.fired_events == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "nope")
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()
        assert sim.fired_events == 0

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_cancelled_events_not_counted_as_fired(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        sim.run()
        assert sim.fired_events == 1
        assert keep.time == 1.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run(until=3.0)
        assert fired == ["in"]
        assert sim.now == 3.0

    def test_run_until_inclusive_boundary(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, "edge")
        sim.run(until=3.0)
        assert fired == ["edge"]

    def test_resume_after_until(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=3.0)
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_until_advances_clock_without_events(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_until_nan_rejected(self, sim):
        # no event time is greater than NaN, so the run would never stop
        sim.every(1.0, lambda: None)
        with pytest.raises(SimulationError, match="nan"):
            sim.run(until=float("nan"))
        sim.run(until=2.5)
        assert sim.now == 2.5

    def test_reentrant_run_rejected(self, sim):
        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()


class TestPeriodic:
    def test_periodic_fires_at_interval(self, sim):
        times = []
        sim.every(2.0, lambda: times.append(sim.now))
        sim.run(until=7.0)
        assert times == [2.0, 4.0, 6.0]

    def test_periodic_start_delay(self, sim):
        times = []
        sim.every(2.0, lambda: times.append(sim.now), start_delay=1.0)
        sim.run(until=6.0)
        assert times == [1.0, 3.0, 5.0]

    def test_periodic_stop(self, sim):
        times = []
        proc = sim.every(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, proc.stop)
        sim.run(until=10.0)
        assert times == [1.0, 2.0]
        assert proc.stopped

    def test_stop_from_within_callback(self, sim):
        times = []
        proc = sim.every(1.0, lambda: (times.append(sim.now), proc.stop()))
        sim.run(until=10.0)
        assert times == [1.0]

    def test_nonpositive_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_events_scheduled_from_callbacks(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, chain, n + 1)

        sim.schedule(1.0, chain, 1)
        sim.run()
        assert fired == [1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestEventObject:
    def test_sort_key_orders_by_time_then_seq(self):
        a = Event(1.0, 0, lambda: None, ())
        b = Event(1.0, 1, lambda: None, ())
        c = Event(0.5, 2, lambda: None, ())
        assert sorted([a, b, c]) == [c, a, b]

    def test_pending_events_counts_heap(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2


class TestEdgeCases:
    """Edge semantics the fault injector leans on."""

    def test_schedule_at_exactly_now_is_allowed(self, sim):
        fired = []
        sim.schedule(3.0, lambda: sim.schedule_at(sim.now, fired.append, "x"))
        sim.run()
        assert fired == ["x"]
        assert sim.now == 3.0

    def test_schedule_at_in_past_raises(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_at(4.999, lambda: None)

    def test_same_instant_nested_scheduling_preserves_fifo(self, sim):
        # Events scheduled *from a callback* for the current instant fire
        # after already-pending same-instant events, in schedule order.
        order = []
        sim.schedule(1.0, lambda: (order.append("a"),
                                   sim.schedule(0.0, order.append, "d")))
        sim.schedule(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_cancel_same_instant_sibling(self, sim):
        # An event may cancel a sibling scheduled for the *same* instant
        # before it fires (the crash handler cancels pending completions).
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(2.0, victim.cancel)
        # seq order: victim first, cancel second -> victim still fires
        sim.run()
        assert fired == ["victim"]

        killer_first = []
        sim2 = type(sim)()
        victim2 = [None]
        sim2.schedule(2.0, lambda: victim2[0].cancel())
        victim2[0] = sim2.schedule(2.0, killer_first.append, "victim")
        sim2.run()
        assert killer_first == []

    def test_cancelled_event_never_fires_after_resume(self, sim):
        fired = []
        event = sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        event.cancel()
        sim.run()
        assert fired == []
        assert sim.fired_events == 0

    def test_cancel_after_firing_is_harmless(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.run()
        event.cancel()  # no error, no double bookkeeping
        assert fired == ["x"]
        assert sim.fired_events == 1

    def test_run_until_boundary_event_fires_once(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "edge")
        sim.run(until=5.0)
        assert fired == ["edge"]
        sim.run(until=10.0)
        assert fired == ["edge"]
        assert sim.now == 10.0

    def test_periodic_stop_inside_last_firing_cancels_tail(self, sim):
        ticks = []
        proc = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(3.5, proc.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0

    def test_deep_zero_delay_chain_stays_at_same_instant(self, sim):
        # A long zero-delay cascade (restart -> rewire -> register ...)
        # must not advance the clock.
        depth = []

        def chain(n):
            depth.append(sim.now)
            if n:
                sim.schedule(0.0, chain, n - 1)

        sim.schedule(2.0, chain, 50)
        sim.run()
        assert depth == [2.0] * 51


NAN = float("nan")


class TestNaNTimesRejected:
    """A NaN time compares false with everything, so ``delay < 0`` and
    ``time < now`` let it through and it corrupts the heap order."""

    def test_schedule_fire_rejects_nan_and_keeps_order(self, sim):
        fired = []
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_fire(NAN, fired.append, "nan")
        sim.schedule_fire(1.0, fired.append, "one")
        sim.schedule_fire(0.5, fired.append, "half")
        sim.run()
        assert fired == ["half", "one"]

    def test_schedule_rejects_nan(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule(NAN, lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_rejects_nan_and_the_clock_stays_finite(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_at(NAN, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0

    def test_pooled_scheduling_rejects_nan(self, sim):
        with pytest.raises(SimulationError, match="nan"):
            sim.every(1.0, lambda: None, start_delay=NAN)
        with pytest.raises(SimulationError, match="nan"):
            sim.schedule_batch([NAN], lambda: None)
        assert sim.pending_events == 0
