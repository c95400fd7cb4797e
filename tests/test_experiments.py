"""Tests for the experiment harnesses (recorder, report, fig5, quick runs)."""

import os

import pytest

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.experiments.fig5_surface import Fig5Params, build_models
from repro.experiments.fig5_surface import run as run_fig5
from repro.experiments.recording import SeriesRecorder
from repro.experiments.report import format_table, ms, write_csv
from repro.qos.stats import percentile
from repro.workloads.rates import ConstantRate

from conftest import make_linear_job


class TestSeriesRecorder:
    def run_recorded(self, duration=20.0, interval=5.0):
        engine = StreamProcessingEngine(EngineConfig())
        graph = make_linear_job(source_rate=100.0)
        profile = graph.vertex("Source").rate_profile
        engine.submit(graph)
        recorder = SeriesRecorder(
            engine, interval=interval, source_vertex="Source", source_profile=profile
        )
        recorder.add_sink_feed("e2e", "Sink")
        engine.run(duration)
        return engine, recorder

    def test_rows_per_interval(self):
        # ticks at ~5, 10, 15 (the t=20 tick lands just past the horizon)
        _, recorder = self.run_recorded(duration=20.0, interval=5.0)
        assert len(recorder.rows) == 3
        _, recorder = self.run_recorded(duration=20.1, interval=5.0)
        assert len(recorder.rows) == 4

    def test_throughput_recorded(self):
        _, recorder = self.run_recorded()
        row = recorder.rows[-1]
        assert row.attempted_rate == pytest.approx(100.0)
        assert row.effective_rate == pytest.approx(100.0, rel=0.15)

    def test_latency_feed_recorded(self):
        _, recorder = self.run_recorded()
        row = recorder.rows[-1]
        assert row.latency_mean["e2e"] is not None
        assert row.latency_p95["e2e"] >= row.latency_mean["e2e"] * 0.5

    def test_parallelism_series(self):
        _, recorder = self.run_recorded()
        series = recorder.parallelism_series("Worker")
        assert all(p == 2 for _, p in series)

    def test_task_seconds_monotone(self):
        _, recorder = self.run_recorded()
        values = [r.task_seconds for r in recorder.rows]
        assert values == sorted(values)
        assert values[-1] > 0

    def test_cpu_utilization_in_range(self):
        _, recorder = self.run_recorded()
        for row in recorder.rows:
            assert 0.0 <= row.cpu_utilization <= 1.0
        assert recorder.mean_cpu_utilization() > 0.0

    def test_probe_feed(self):
        engine = StreamProcessingEngine(EngineConfig())
        graph = make_linear_job(source_rate=50.0)
        recorder = SeriesRecorder(engine, interval=5.0)
        probe = recorder.add_probe_feed("custom")
        engine.add_vertex_probe("Worker", probe)
        engine.submit(graph)
        engine.run(10.0)
        assert recorder.rows[-1].latency_mean["custom"] is not None

    def test_typed_probe_feed_keeps_only_its_payloads(self):
        """Fig. 8 records the merged topic lists at a vertex tweets pass too."""
        engine = StreamProcessingEngine(EngineConfig())
        recorder = SeriesRecorder(engine, interval=5.0)
        probe = recorder.add_probe_feed("ints", int)
        for latency, payload in ((0.1, 1), (0.5, "tweet"), (0.3, 2)):
            probe(latency, payload)
        engine.submit(make_linear_job(source_rate=50.0))
        engine.run(6.0)
        assert recorder.rows[0].latency_mean["ints"] == pytest.approx(0.2)

    def test_feeds_equal_a_reference_list_of_tuples_probe(self):
        engine = StreamProcessingEngine(EngineConfig())
        recorder = SeriesRecorder(engine, interval=5.0)
        recorder.add_sink_feed("sink", "Sink")
        feed_probe = recorder.add_probe_feed("probe")
        pending, per_tick = [], []

        def beside(latency, payload):
            feed_probe(latency, payload)
            pending.append((engine.sim.now, latency))

        def reference_tick(now=None):
            per_tick.append(list(pending))
            pending.clear()

        engine.add_vertex_probe("Sink", beside)
        # same clock, subscribed after the recorder: same drain instants
        engine.sampling_clock(5.0).subscribe(reference_tick)
        engine.submit(make_linear_job(source_rate=200.0, service_cv=0.7, n_sinks=2))
        engine.run(16.0)
        assert len(recorder.rows) == len(per_tick) == 3
        for row, reference in zip(recorder.rows, per_tick):
            latencies = [latency for _, latency in reference]
            assert len(latencies) > 500
            for feed in ("sink", "probe"):
                assert row.latency_mean[feed] == sum(latencies) / len(latencies)
                assert row.latency_p95[feed] == percentile(latencies, 95.0)

    def test_peak_effective_rate(self):
        _, recorder = self.run_recorded()
        assert recorder.peak_effective_rate() > 80.0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbbb"], [[1, 2.5], [None, "x"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbbb" in lines[1]
        assert "-" in lines[2]
        assert "2.50" in lines[3]
        assert lines[4].startswith("-")  # None rendered as '-'

    def test_float_formatting(self):
        text = format_table(["v"], [[0.00123], [1234.5], [12.3]])
        assert "0.0012" in text
        assert "1234" in text
        assert "12.30" in text

    def test_write_csv_roundtrip(self, tmp_path):
        path = os.path.join(tmp_path, "sub", "out.csv")
        write_csv(path, ["a", "b"], [[1, None], [2, "x"]])
        with open(path) as f:
            content = f.read().strip().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,"
        assert content[2] == "2,x"

    def test_ms_helper(self):
        assert ms(None) is None
        assert ms(0.25) == 250.0


class TestFig5:
    def test_surface_and_optimum(self):
        for params in (Fig5Params(p_max=20), Fig5Params()):  # the second: the paper's scale
            result = run_fig5(params)
            assert result.surface
            assert result.brute_total is not None
            # Rebalance lands within one task of the surface optimum.
            assert result.rebalance_total <= result.brute_total + 1
            assert result.optima
            for p1, p2, p3 in result.optima:
                assert p1 + p2 + p3 == result.brute_total

    def test_surface_points_feasible(self):
        params = Fig5Params(p_max=15)
        result = run_fig5(params)
        model = build_models(params)
        for p1, p2, p3, total in result.surface[:50]:
            wait = model.total_waiting_time({"jv1": p1, "jv2": p2, "jv3": p3})
            assert wait <= params.wait_budget + 1e-12
            assert total == p1 + p2 + p3

    def test_surface_p3_minimal(self):
        params = Fig5Params(p_max=15)
        result = run_fig5(params)
        model = build_models(params)
        m3 = model.models[2]
        for p1, p2, p3, _ in result.surface[:30]:
            if p3 > 1:
                wait = model.total_waiting_time({"jv1": p1, "jv2": p2, "jv3": p3 - 1})
                assert wait > params.wait_budget

    def test_report_renders(self):
        result = run_fig5(Fig5Params(p_max=12))
        text = result.report()
        assert "Rebalance chose" in text
        assert "optima" in text

    def test_csv_export(self, tmp_path):
        result = run_fig5(Fig5Params(p_max=10))
        path = result.series_csv(os.path.join(tmp_path, "surface.csv"))
        assert os.path.exists(path)
