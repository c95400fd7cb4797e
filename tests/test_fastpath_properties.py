"""Property-based tests for the fast-path data structures.

Hypothesis drives randomized operation sequences against the engine's
fast-path structures — a task's bounded input queue as
``RuntimeChannel._arrive`` and ``RuntimeTask._start_next`` drive it,
the kernel's mixed-shape heap and :class:`BatchSchedule`, and the cached
:class:`~repro.qos.stats.WindowedStats` aggregates — checking each
against a trivially correct reference model.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos.stats import OnlineStats, WindowedStats
from repro.simulation.kernel import Simulator

from conftest import fed_consumer, put, serve

# ----------------------------------------------------------------------
# The input queue on the path a run takes: FIFO, capacity, parking
# ----------------------------------------------------------------------

# An op is ("put", payload) or ("serve",); payloads are small ints.
_queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 999)),
        st.tuples(st.just("serve")),
    ),
    max_size=60,
)


class TestBoundedQueueProperties:
    @given(capacity=st.integers(1, 8), ops=_queue_ops)
    def test_fifo_and_capacity_vs_model(self, capacity, ops):
        """One server, a capacity-capped deque and the channel's overflow.

        An arrival enqueues or parks (``RuntimeChannel._arrive``); the
        sink pops in FIFO order (``RuntimeTask._start_next``), and each
        pop lets the oldest parked item in.
        """
        sim, consumer, done, [feed] = fed_consumer(capacity)
        queue, channel = consumer.input_queue, feed[1]
        serving, queued, parked, finished = deque(), deque(), deque(), []
        enqueued = 0
        for op in ops:
            if op[0] == "put":
                put(sim, feed, op[1])
                parked.append(op[1])
            else:
                serve(sim)
                if serving:
                    finished.append(serving.popleft())
            while True:  # settle: an idle server starts, parked items fill free slots
                if not serving and queued:
                    serving.append(queued.popleft())
                elif parked and len(queued) < capacity:
                    queued.append(parked.popleft())
                    enqueued += 1
                else:
                    break
            assert done == finished
            assert consumer._busy == bool(serving)
            assert [entry[0].payload for entry in queue._items] == list(queued)
            assert [item.payload for item in channel._pending] == list(parked)
            assert channel.outstanding == len(parked)
            assert len(queue._space_listeners) == (1 if parked else 0)
        assert queue.total_enqueued == enqueued == channel.items_delivered

    @given(closed=st.lists(st.booleans(), min_size=1, max_size=8), capacity=st.integers(1, 6))
    def test_space_listeners_fire_once_each_in_fifo_order(self, closed, capacity):
        """Parked channels are woken in the order they parked, each once.

        A channel closed while parked does not refill the slot, so the
        same pop goes on to wake the next listener.
        """
        sim, consumer, done, feeds = fed_consumer(capacity, channels=len(closed) + 1)
        filler, parked = feeds[0], feeds[1:]
        for i in range(capacity + 1):
            put(sim, filler, -1 - i)  # one in service, the queue full
        for index, feed in enumerate(parked):
            put(sim, feed, index)  # parks and listens
        for (_, channel), shut in zip(parked, closed):
            if shut:
                channel.close()
        listeners = consumer.input_queue._space_listeners
        assert len(listeners) == len(closed)
        open_ones = [i for i, shut in enumerate(closed) if not shut]
        for served, index in enumerate(open_ones, start=1):
            serve(sim)
            assert [c.items_delivered for _, c in parked] == [
                int(i in open_ones[:served]) for i in range(len(closed))
            ]
            assert len(listeners) == len(closed) - index - 1
        serve(sim, capacity + len(closed) + 1)
        assert not listeners
        assert done == [-1 - i for i in range(capacity + 1)] + open_ones

    @given(capacity=st.integers(1, 4))
    def test_listener_refilling_queue_stops_notification(self, capacity):
        """A listener that refills the queue parks the remaining listeners."""
        sim, consumer, _, (a, b) = fed_consumer(capacity, channels=2)
        for i in range(capacity + 2):
            put(sim, a, i)  # one in service, the queue full, one parked
        put(sim, b, 99)
        listeners = consumer.input_queue._space_listeners
        assert len(listeners) == 2
        serve(sim)
        # a's parked item consumed the freed slot -> b must still be parked
        assert (a[1].items_delivered, b[1].items_delivered) == (capacity + 2, 0)
        assert len(listeners) == 1
        serve(sim)
        assert b[1].items_delivered == 1
        assert not listeners


# ----------------------------------------------------------------------
# Kernel: BatchSchedule equals individual scheduling; cancellation
# ----------------------------------------------------------------------

_offsets = st.lists(st.floats(0.0, 10.0, allow_nan=False, width=32), max_size=30)


class TestBatchScheduleProperties:
    @given(offsets=_offsets)
    def test_batch_matches_individual_schedule_at(self, offsets):
        """One BatchSchedule fires like n successive schedule_at calls."""
        times = sorted(offsets)

        ref_sim = Simulator()
        ref_fired = []
        for t in times:
            ref_sim.schedule_at(t, ref_fired.append, t)
        ref_sim.run()

        sim = Simulator()
        fired = []
        batch = sim.schedule_batch(times, lambda: fired.append(sim.now))
        sim.run()

        assert fired == ref_fired
        assert sim.now == ref_sim.now
        assert sim.fired_events == ref_sim.fired_events
        assert batch.stopped
        assert batch.remaining == 0

    @given(
        offsets=st.lists(
            st.floats(0.0, 10.0, allow_nan=False, width=32), min_size=1, max_size=30
        ),
        stop_after=st.integers(0, 30),
    )
    def test_stop_cancels_remaining_firings(self, offsets, stop_after):
        """Stopping mid-walk fires exactly min(stop_after, n) steps."""
        times = sorted(offsets)
        sim = Simulator()
        fired = []
        batch = None

        def step():
            fired.append(sim.now)
            if len(fired) >= stop_after:
                batch.stop()

        batch = sim.schedule_batch(times, step)
        if stop_after == 0:
            batch.stop()
        sim.run()
        expected = 0 if stop_after == 0 else min(stop_after, len(times))
        assert len(fired) == expected
        assert batch.stopped
        assert batch.remaining == 0
        # A stopped batch never fires again even if the sim keeps running.
        sim.schedule(100.0, lambda: None)
        sim.run()
        assert len(fired) == expected

    @given(offsets=_offsets, extra=_offsets)
    def test_batch_interleaves_with_other_events(self, offsets, extra):
        """Plain events scheduled alongside a batch leave its walk intact."""
        times = sorted(offsets)
        sim = Simulator()
        order = []
        sim.schedule_batch(times, lambda: order.append(("batch", sim.now)))
        for t in extra:
            sim.schedule_at(t, lambda t=t: order.append(("plain", t)))
        sim.run()
        assert [t for kind, t in order if kind == "batch"] == times
        assert sorted(t for kind, t in order if kind == "plain") == sorted(extra)


# ----------------------------------------------------------------------
# Stats: Welford and cached window aggregates vs naive recomputation
# ----------------------------------------------------------------------

_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=100
)


class TestStatsProperties:
    @given(values=_samples)
    def test_welford_matches_naive_two_pass(self, values):
        stats = OnlineStats()
        for v in values:
            stats.add(v)
        assert stats.count == len(values)
        if not values:
            assert stats.mean == 0.0 and stats.variance == 0.0
            return
        naive_mean = math.fsum(values) / len(values)
        assert math.isclose(stats.mean, naive_mean, rel_tol=1e-9, abs_tol=1e-9)
        if len(values) >= 2:
            naive_var = math.fsum((v - naive_mean) ** 2 for v in values) / (
                len(values) - 1
            )
            assert math.isclose(
                stats.variance, naive_var, rel_tol=1e-9, abs_tol=1e-6
            )
        assert stats.min == min(values)
        assert stats.max == max(values)

    @given(
        window=st.integers(1, 6),
        intervals=st.lists(
            st.lists(st.floats(0.0, 1e3, allow_nan=False), max_size=20),
            max_size=12,
        ),
    )
    @settings(max_examples=60)
    def test_cached_window_aggregates_match_naive_rescan(self, window, intervals):
        """The memoized aggregates equal a from-scratch recomputation.

        The naive model replays the same snapshots into a *fresh*
        WindowedStats before every read, so its values can never come
        from a stale cache; the live instance interleaves reads between
        pushes to exercise cache invalidation.
        """
        live = WindowedStats(window)
        history = []
        for samples in intervals:
            acc = OnlineStats()
            for v in samples:
                acc.add(v)
            snap = acc.snapshot_and_reset()
            live.push(snap)
            history.append(snap)

            naive = WindowedStats(window)
            for s in history:
                naive.push(s)
            naive_values = (
                naive.has_data,
                naive.count,
                naive.mean,
                naive.weighted_mean,
                naive.variance,
                naive.cv,
            )
            # Read twice: once freshly invalidated, once from cache.
            for _ in range(2):
                assert live.has_data == naive_values[0]
                assert live.count == naive_values[1]
                assert math.isclose(
                    live.mean, naive_values[2], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.weighted_mean, naive_values[3], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.variance, naive_values[4], rel_tol=1e-9, abs_tol=1e-9
                )
                assert math.isclose(
                    live.cv, naive_values[5], rel_tol=1e-9, abs_tol=1e-9
                )

    @given(
        counts=st.lists(st.integers(0, 5), min_size=1, max_size=10),
    )
    def test_empty_snapshots_age_the_window(self, counts):
        """m consecutive empty snapshots evict all data from the window."""
        window = 3
        stats = WindowedStats(window)
        for count in counts:
            acc = OnlineStats()
            for i in range(count):
                acc.add(float(i + 1))
            stats.push(acc.snapshot_and_reset())
        if all(c == 0 for c in counts[-window:]) and len(counts) >= window:
            assert not stats.has_data
        if any(c > 0 for c in counts[-window:]):
            assert stats.has_data

