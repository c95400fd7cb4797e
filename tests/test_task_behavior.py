"""Focused behavioural tests of the runtime task model."""

import pytest

from repro.builder import PipelineBuilder
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.udf import SinkUDF, SourceUDF, WindowedAggregateUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.randomness import Deterministic, Gamma
from repro.workloads.rates import ConstantRate

from conftest import make_linear_job, run_linear


def windowed_job(window=0.2, rate=100.0):
    """Source -> windowed counter -> Sink."""
    graph = JobGraph("windowed")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 1))

    def make_window():
        return WindowedAggregateUDF(
            window,
            create=lambda: 0,
            add=lambda acc, x: acc + 1,
            finalize=lambda acc: [acc],
        )

    win = graph.add_vertex("Win", make_window)
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, win)
    graph.connect(win, sink)
    src.rate_profile = ConstantRate(rate, jitter="deterministic")
    return graph


class TestWindowedTasks:
    def run_windowed(self, window=0.2, rate=100.0, duration=20.0):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        graph = windowed_job(window, rate)
        job = engine.submit(graph)
        engine.run(duration)
        return job

    def test_window_emits_counts(self):
        job = self.run_windowed()
        sink = job.runtime.vertex("Snk").tasks[0].udf
        assert sink.consumed > 0

    def test_aggregate_counts_conserve_items(self):
        job = self.run_windowed(duration=20.0)
        win_task = job.runtime.vertex("Win").tasks[0]
        consumed_inputs = win_task.items_processed
        # Sum of the emitted window counts equals the inputs folded into
        # closed windows (the still-open window may hold a remainder).
        sink_payload_total = 0
        for t in job.runtime.vertex("Snk").tasks:
            pass
        # inspect sink via probe: recompute from emitted items
        emitted_counts = win_task.items_emitted
        assert emitted_counts > 0
        assert consumed_inputs >= emitted_counts  # many-to-one aggregation

    def test_rw_latency_mean_about_half_window(self):
        job = self.run_windowed(window=0.2, rate=200.0, duration=30.0)
        vs = job.last_summary.vertex("Win")
        # items arrive uniformly; flush at window end -> mean wait ~ w/2
        assert 0.05 <= vs.task_latency <= 0.15

    def test_rw_latency_scales_with_window(self):
        small = self.run_windowed(window=0.1, duration=30.0)
        large = self.run_windowed(window=0.4, duration=30.0)
        assert (
            large.last_summary.vertex("Win").task_latency
            > small.last_summary.vertex("Win").task_latency * 2
        )

    def test_window_output_created_at_is_mean_of_inputs(self):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        graph = windowed_job(window=0.2, rate=100.0)
        samples = []
        engine.add_vertex_probe("Snk", lambda latency, payload: samples.append(latency))
        engine.submit(graph)
        engine.run(10.0)
        assert samples
        mean = sum(samples) / len(samples)
        # e2e from mean input creation to sink: ~ half window + shipping
        assert 0.08 <= mean <= 0.2


class TestSourceThrottling:
    def test_attempted_rate_reached_when_unloaded(self):
        job = run_linear(duration=10.0, source_rate=300.0, service_mean=0.001)
        emitted = sum(t.items_processed for t in job.runtime.vertex("Source").tasks)
        assert emitted == pytest.approx(3000, rel=0.05)

    def test_effective_rate_capped_by_shipping_overhead(self):
        config = EngineConfig(per_batch_overhead=0.005, per_item_overhead=0.0)
        # instant flush: 5 ms CPU per emitted item -> max 200/s
        job = run_linear(config, duration=10.0, source_rate=1000.0, service_mean=0.0)
        emitted = sum(t.items_processed for t in job.runtime.vertex("Source").tasks)
        assert emitted == pytest.approx(2000, rel=0.15)

    def test_source_survives_and_recovers_from_backpressure(self):
        from repro.workloads.rates import PiecewiseRate
        from repro.engine.udf import MapUDF
        from repro.graphs.job_graph import JobGraph
        from repro.simulation.randomness import Gamma

        graph = JobGraph("recover")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
        worker = graph.add_vertex(
            "W", lambda: MapUDF(lambda x: x, service_dist=Deterministic(0.01))
        )
        sink = graph.add_vertex("Snk", lambda: SinkUDF())
        graph.connect(src, worker)
        graph.connect(worker, sink)
        # overload (500/s vs 100/s capacity), then light load again
        src.rate_profile = PiecewiseRate([(0.0, 500.0), (20.0, 20.0)])
        config = EngineConfig(queue_capacity=32, channel_capacity=8, seed=5)
        engine = StreamProcessingEngine(config)
        job = engine.submit(graph)
        engine.run(20.0)
        during_overload = sum(t.items_processed for t in job.runtime.vertex("Src").tasks)
        engine.run(40.0)
        after = sum(t.items_processed for t in job.runtime.vertex("Src").tasks)
        # the source kept emitting after the overload ended (~20/s x 40 s)
        assert after - during_overload == pytest.approx(800, rel=0.25)


class TestHeterogeneousWorkers:
    def test_hot_spot_worker_creates_lagging_task(self):
        # The first Worker task serves at quarter speed (4x service times).
        engine = StreamProcessingEngine(EngineConfig(queue_capacity=64))
        job = engine.submit(make_linear_job(source_rate=400.0, service_mean=0.008, n_workers=4))
        job.runtime.vertex("Worker").tasks[0].service_multiplier = 4.0
        engine.run(30.0)
        tasks = job.runtime.vertex("Worker").tasks
        counts = sorted(t.items_processed for t in tasks)
        # The slow task lags (capacity-limited)...
        assert counts[0] < 0.8 * counts[-1]
        # ...and, worse, its backpressure throttles the whole dataflow:
        # even the fast peers process far less than their offered 100/s
        # (the hot-spot cascade the paper's homogeneity assumption avoids).
        assert counts[-1] < 0.6 * 100.0 * 30.0

    def test_homogeneous_default(self):
        job = run_linear(duration=5.0)
        for task in job.runtime.all_tasks():
            assert task.service_multiplier == 1.0


class TestOverheadAccounting:
    def test_busy_time_includes_service_and_overhead(self):
        config = EngineConfig(per_batch_overhead=0.001, per_item_overhead=0.0)
        job = run_linear(config, duration=10.0, source_rate=100.0, service_mean=0.002)
        worker = job.runtime.vertex("Worker").tasks[0]
        # ~500 items/task: 2 ms service + 1 ms ship each ~ 1.5 s busy
        expected = worker.items_processed * 0.003
        assert worker.busy_time == pytest.approx(expected, rel=0.2)

    def test_zero_overhead_config(self):
        config = EngineConfig(per_batch_overhead=0.0, per_item_overhead=0.0)
        job = run_linear(config, duration=10.0, source_rate=100.0, service_mean=0.002)
        worker = job.runtime.vertex("Worker").tasks[0]
        assert worker.busy_time == pytest.approx(worker.items_processed * 0.002, rel=0.1)


class TestUdfFailure:
    def test_failure_is_labelled_with_task_and_time(self):
        """A UDF that raises inside engine.run surfaces as the same
        exception, with a note naming the completion, the task and t."""

        def fragile(x):
            if x > 0.9:
                raise ValueError("bad payload", x)
            return x

        built = (
            PipelineBuilder("fragile")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(100.0))
            .map("m", fragile, service=Gamma(0.002, 0.5))
            .sink()
            .build()
        )
        engine = StreamProcessingEngine(EngineConfig(seed=1))
        engine.submit(built)
        with pytest.raises(ValueError, match="bad payload") as info:
            engine.run(5.0)
        assert info.value.args[1] > 0.9
        (note,) = info.value.__notes__
        assert note.startswith("raised by RuntimeTask._complete_service of RuntimeTask(m[0]#")
        assert f"at t={engine.now!r}, entry seq " in note
