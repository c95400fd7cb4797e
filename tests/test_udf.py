"""Unit tests for the UDF model."""

import pytest

from repro.engine.udf import (
    Emit,
    FilterUDF,
    FlatMapUDF,
    MapUDF,
    SinkUDF,
    SourceUDF,
    UDF,
    WindowedAggregateUDF,
)
from repro.simulation.randomness import Deterministic, Gamma


class TestBaseUDF:
    def test_default_service_time_is_zero(self, rng):
        udf = MapUDF(lambda x: x)
        assert udf.service_time("x", rng) == 0.0

    def test_service_dist_sampled(self, rng):
        udf = MapUDF(lambda x: x, service_dist=Deterministic(0.005))
        assert udf.service_time("x", rng) == 0.005

    def test_gamma_service_varies(self, rng):
        udf = MapUDF(lambda x: x, service_dist=Gamma(0.01, 1.0))
        samples = {udf.service_time("x", rng) for _ in range(5)}
        assert len(samples) > 1

    def test_latency_mode_default_rr(self):
        assert MapUDF(lambda x: x).latency_mode == "RR"

    def test_process_abstract(self):
        with pytest.raises(NotImplementedError):
            UDF().process("x")


class TestMapFilterFlatMap:
    def test_map(self):
        assert list(MapUDF(lambda x: x * 2).process(3)) == [6]

    def test_filter_pass(self):
        assert list(FilterUDF(lambda x: x > 0).process(5)) == [5]

    def test_filter_drop(self):
        assert list(FilterUDF(lambda x: x > 0).process(-5)) == []

    def test_flatmap_multiple(self):
        udf = FlatMapUDF(lambda x: [x, x + 1])
        assert list(udf.process(1)) == [1, 2]

    def test_flatmap_empty(self):
        assert list(FlatMapUDF(lambda x: []).process(1)) == []


class TestSource:
    def test_generator_callable(self, rng):
        udf = SourceUDF(lambda now, rng: ("item", now))
        assert udf.generate(2.5, rng) == ("item", 2.5)

    def test_generate_requires_generator(self, rng):
        with pytest.raises(NotImplementedError):
            SourceUDF().generate(0.0, rng)

    def test_sources_do_not_consume(self):
        with pytest.raises(TypeError):
            SourceUDF(lambda now, rng: 1).process("x")


class TestSink:
    def test_counts_consumed(self):
        sink = SinkUDF()
        sink.process("a")
        sink.process("b")
        assert sink.consumed == 2

    def test_on_item_hook(self):
        seen = []
        sink = SinkUDF(on_item=seen.append)
        sink.process("x")
        assert seen == ["x"]

    def test_outputs_nothing(self):
        assert list(SinkUDF().process("x")) == []


class TestWindowedAggregate:
    def make(self, window=0.2, emit_empty=False):
        return WindowedAggregateUDF(
            window,
            create=list,
            add=lambda acc, x: acc + [x],
            finalize=lambda acc: [sum(acc)],
            emit_empty=emit_empty,
        )

    def test_is_windowed_and_rw(self):
        assert self.make().latency_mode == "RW"

    def test_process_emits_nothing(self):
        assert list(self.make().process(1)) == []

    def test_flush_finalizes_window(self):
        udf = self.make()
        udf.process(1)
        udf.process(2)
        assert udf.flush() == (3,)

    def test_flush_resets_window(self):
        udf = self.make()
        udf.process(1)
        udf.flush()
        udf.process(10)
        assert udf.flush() == (10,)

    def test_empty_window_emits_nothing(self):
        assert self.make().flush() == ()

    def test_emit_empty_forces_finalize(self):
        assert self.make(emit_empty=True).flush() == (0,)

    def test_consume_times_tracked_and_cleared(self):
        udf = self.make()
        udf.record_consume(1.0)
        udf.record_consume(1.5)
        assert udf.consume_times_and_clear() == [1.0, 1.5]
        assert udf.consume_times_and_clear() == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            self.make(window=0.0)


class TestEmit:
    def test_wraps_gate_and_payload(self):
        e = Emit(1, "data")
        assert e.gate == 1
        assert e.payload == "data"
