"""The end-to-end sample buffer: contract, engine wiring, residue guard."""

import gc
import struct
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.items import SinkSamples

from conftest import make_linear_job

SUBNORMAL = 5e-324


class Clock:
    """Stands in for the simulator: anything with ``.now``."""

    now = 0.0


def bits(pairs):
    return [struct.pack("<dd", time, latency) for time, latency in pairs]


def assert_view_is(view, expected):
    """``view`` behaves like the list of (time, latency) tuples ``expected``."""
    n = len(expected)
    assert len(view) == n
    assert bool(view) == bool(expected)
    assert list(view) == expected
    assert bits(view) == bits(expected)
    for i in range(n):
        assert view[i] == expected[i]
        assert view[i - n] == expected[i - n]
    for beyond in (n, -n - 1):
        with pytest.raises(IndexError):
            view[beyond]
    assert sorted(view) == sorted(expected)
    latencies = view.latencies()
    assert list(latencies) == [latency for _, latency in expected]
    assert latencies.typecode == "d"


doubles = st.floats(allow_nan=False)


class TestContract:
    @given(st.lists(st.one_of(st.none(), st.tuples(doubles, doubles))))
    @example([(0.0, -0.0), (-0.0, SUBNORMAL), None, (float("inf"), -SUBNORMAL)])
    def test_drained_views_concatenate_to_the_reference_list(self, ops):
        # None = drain, (time, latency) = record at that virtual time
        clock = Clock()
        samples = SinkSamples(clock)
        pending, drained = [], []
        for op in ops + [None]:
            if op is None:
                view = samples.drain()
                assert_view_is(view, pending)
                drained.append((view, pending))
                pending = []
            else:
                clock.now, latency = op
                samples.record(latency, "payload")
                pending.append(op)
        # a drained view is detached: later records never reached it
        for view, expected in drained:
            assert_view_is(view, expected)


class TestEngineWiring:
    def test_tasks_of_one_sink_vertex_share_a_buffer_in_firing_order(self):
        engine = StreamProcessingEngine(EngineConfig())
        reference = []
        engine.add_vertex_probe(
            "Sink", lambda latency, payload: reference.append((engine.sim.now, latency))
        )
        job = engine.submit(make_linear_job(source_rate=200.0, service_cv=0.5, n_sinks=2))
        engine.run(5.0)
        assert all(t.items_processed > 100 for t in job.runtime.vertex("Sink").tasks)
        view = job.drain_sink_samples("Sink")
        assert list(view) == reference
        times = [time for time, _ in view]
        assert times == sorted(times)

    def test_sample_is_recorded_before_the_vertex_probe_fires(self):
        engine = StreamProcessingEngine(EngineConfig())
        seen = []

        def probe(latency, payload):
            view = job.drain_sink_samples("Sink")
            seen.append(list(view) == [(engine.sim.now, latency)])

        engine.add_vertex_probe("Sink", probe)
        job = engine.submit(make_linear_job(source_rate=50.0))
        engine.run(2.0)
        assert len(seen) > 50 and all(seen)

    @pytest.mark.parametrize("vertex", ["Worker", "Source", "nope"])
    def test_drain_refuses_a_vertex_that_is_not_a_sink(self, vertex):
        engine = StreamProcessingEngine(EngineConfig())
        job = engine.submit(make_linear_job())
        with pytest.raises(ValueError, match=r"sinks: \['Sink'\]") as raised:
            job.drain_sink_samples(vertex)
        assert repr(vertex) in str(raised.value)

    def test_idle_sink_drains_an_empty_view(self):
        engine = StreamProcessingEngine(EngineConfig())
        job = engine.submit(make_linear_job())
        view = job.drain_sink_samples("Sink")
        assert len(view) == 0 and not view
        assert list(view) == [] and list(view.latencies()) == []


class TestResidue:
    """What a delivered item leaves behind, counted by the allocator."""

    @staticmethod
    def retained_after_run(duration):
        gc.collect()
        tracemalloc.start()
        try:
            engine = StreamProcessingEngine(EngineConfig())
            job = engine.submit(make_linear_job(source_rate=1000.0, service_mean=0.0005))
            engine.run(duration)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return retained, len(job.drain_sink_samples("Sink"))

    def test_at_most_24_bytes_per_delivered_item(self):
        small_bytes, small_items = self.retained_after_run(5.0)
        large_bytes, large_items = self.retained_after_run(25.0)
        assert 4_500 <= small_items <= 5_500
        assert 24_000 <= large_items <= 26_000
        per_item = (large_bytes - small_bytes) / (large_items - small_items)
        # 16 B of array('d') plus its over-allocation; a tuple and two
        # boxed floats in a list were ~110 B
        assert per_item <= 24.0
