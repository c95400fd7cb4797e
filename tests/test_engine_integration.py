"""Integration tests: the simulated engine end to end."""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.batching import AdaptiveDeadlineBatching, FixedSizeBatching, InstantFlush
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.graphs.sequences import JobSequence

from conftest import make_linear_job, run_linear


def sink_udfs(job):
    return [t.udf for t in job.runtime.vertex("Sink").tasks]


def total_consumed(job):
    return sum(u.consumed for u in sink_udfs(job))


class TestThroughputConservation:
    def test_all_items_reach_sink(self):
        job = run_linear(duration=10.0, source_rate=200.0)
        emitted = sum(
            t.items_processed for t in job.runtime.vertex("Source").tasks
        )
        sinks = sink_udfs(job)  # capture before teardown removes tasks
        job.engine.stop()  # flush remaining buffers
        job.engine.run(1.0)
        consumed = sum(u.consumed for u in sinks)
        # stop() tears tasks down; anything still queued or in flight when
        # the run ends is lost, but the bulk must have arrived.
        assert emitted > 1900
        assert consumed >= emitted - 50

    def test_effective_rate_matches_attempted_when_underloaded(self):
        job = run_linear(duration=10.0, source_rate=100.0, service_mean=0.001)
        emitted = sum(t.items_processed for t in job.runtime.vertex("Source").tasks)
        assert emitted == pytest.approx(1000, rel=0.03)

    def test_workers_share_round_robin_load(self):
        job = run_linear(duration=10.0, source_rate=100.0, n_workers=4)
        counts = [t.items_processed for t in job.runtime.vertex("Worker").tasks]
        assert max(counts) - min(counts) <= 2


class TestLatency:
    def test_instant_flush_latency_near_sum_of_parts(self):
        config = EngineConfig(
            batching=InstantFlush(),
            base_latency=0.0005,
            per_batch_overhead=0.0,
            per_item_overhead=0.0,
        )
        job = run_linear(config, duration=10.0, source_rate=50.0, service_mean=0.002)
        samples = [latency for _, latency in job.drain_sink_samples("Sink")]
        assert samples
        mean = sum(samples) / len(samples)
        # two hops of 0.5 ms network + 2 ms service (+ transfer + sink pickup)
        assert 0.003 <= mean <= 0.006

    def test_fixed_buffer_latency_far_higher_at_low_rate(self):
        instant = run_linear(
            EngineConfig(batching=InstantFlush()), duration=20.0, source_rate=50.0
        )
        fixed = run_linear(
            EngineConfig(batching=FixedSizeBatching(16 * 1024)),
            duration=20.0,
            source_rate=50.0,
        )
        instant_mean = _mean_latency(instant)
        fixed_mean = _mean_latency(fixed)
        assert fixed_mean > 20 * instant_mean

    def test_adaptive_deadline_bounds_batch_wait(self):
        config = EngineConfig(batching=AdaptiveDeadlineBatching(initial_deadline=0.015))
        job = run_linear(config, duration=15.0, source_rate=50.0, service_mean=0.001)
        samples = [latency for _, latency in job.drain_sink_samples("Sink")]
        mean = sum(samples) / len(samples)
        # Two gates, each holding items at most 15 ms.
        assert mean < 2 * 0.015 + 0.005
        assert mean > 0.005  # batching clearly adds latency over instant

    def test_latency_grows_with_utilization(self):
        low = run_linear(duration=15.0, source_rate=100.0, service_mean=0.002,
                         service_cv=1.0, n_workers=1, jitter="exponential")
        high = run_linear(duration=15.0, source_rate=400.0, service_mean=0.002,
                          service_cv=1.0, n_workers=1, jitter="exponential")
        assert _mean_latency(high) > _mean_latency(low)


def _mean_latency(job):
    samples = [latency for _, latency in job.drain_sink_samples("Sink")]
    assert samples, "no sink samples collected"
    return sum(samples) / len(samples)


class TestBackpressure:
    def overloaded_job(self, duration=20.0):
        config = EngineConfig(queue_capacity=32, channel_capacity=8)
        return run_linear(
            config,
            duration=duration,
            source_rate=500.0,
            service_mean=0.01,
            n_workers=1,
        )

    def test_source_throttled_to_service_capacity(self):
        job = self.overloaded_job()
        emitted = sum(t.items_processed for t in job.runtime.vertex("Source").tasks)
        # capacity = 100 items/s on one worker; attempted was 500/s
        assert emitted < 0.35 * 500 * 20

    def test_queues_and_credits_bounded(self):
        job = self.overloaded_job()
        worker = job.runtime.vertex("Worker").tasks[0]
        assert len(worker.input_queue) <= 32
        for channel in worker.in_channels:
            assert channel.outstanding <= 8

    def test_measured_utilization_saturates(self):
        job = self.overloaded_job()
        vs = job.last_summary.vertex("Worker")
        assert vs is not None
        assert vs.utilization > 0.9

    def test_no_items_lost_under_backpressure(self):
        job = self.overloaded_job()
        emitted = sum(t.items_emitted for t in job.runtime.vertex("Source").tasks)
        worker = job.runtime.vertex("Worker").tasks[0]
        in_buffers = sum(len(g._buffer) for t in job.runtime.vertex("Source").tasks for g in t.out_gates)
        in_flight = sum(c.outstanding for c in worker.in_channels)
        queued = len(worker.input_queue)
        processed = worker.items_processed
        busy = 1 if worker._busy else 0
        assert emitted == in_flight + queued + processed + busy - (in_flight - in_flight)  # sanity
        assert processed + queued + in_flight + busy >= emitted - 1


class TestMeasurementPipeline:
    def test_service_time_measured_accurately(self):
        job = run_linear(duration=15.0, source_rate=100.0, service_mean=0.004)
        vs = job.last_summary.vertex("Worker")
        assert vs.service_mean == pytest.approx(0.004, rel=0.15)

    def test_arrival_rate_measured_per_task(self):
        job = run_linear(duration=15.0, source_rate=100.0, n_workers=2)
        vs = job.last_summary.vertex("Worker")
        assert vs.arrival_rate == pytest.approx(50.0, rel=0.15)

    def test_utilization_is_lambda_times_service(self):
        job = run_linear(duration=15.0, source_rate=100.0, service_mean=0.004, n_workers=2)
        vs = job.last_summary.vertex("Worker")
        assert vs.utilization == pytest.approx(50 * 0.004, rel=0.2)

    def test_channel_latency_at_least_obl(self):
        config = EngineConfig(batching=AdaptiveDeadlineBatching(initial_deadline=0.01))
        job = run_linear(config, duration=15.0, source_rate=100.0)
        es = job.last_summary.edge("Source->Worker")
        assert es.channel_latency >= es.output_batch_latency

    def test_edge_summaries_cover_all_edges(self):
        job = run_linear(duration=12.0)
        assert set(job.last_summary.edges) == {"Source->Worker", "Worker->Sink"}

    def test_summary_history_grows_per_adjustment_interval(self):
        """The per-interval record is the trackers' history; one summary is kept."""
        engine = StreamProcessingEngine(EngineConfig())
        graph = make_linear_job()
        sequence = JobSequence.from_names(
            graph, ["Worker"], leading_edge=True, trailing_edge=True
        )
        job = engine.submit(graph, [LatencyConstraint(sequence, 0.05)])
        engine.run(21.0)
        # adjustment interval 5 s -> summaries at 5, 10, 15, 20
        assert len(job.trackers[0].history) == 4
        assert job.last_summary.timestamp == pytest.approx(20.0)
        assert not hasattr(job, "summary_history")


class TestDeterminism:
    def test_same_seed_same_event_count(self):
        a = run_linear(EngineConfig(seed=3), duration=10.0, service_cv=0.5, jitter="exponential")
        b = run_linear(EngineConfig(seed=3), duration=10.0, service_cv=0.5, jitter="exponential")
        assert a.engine.sim.fired_events == b.engine.sim.fired_events
        assert total_consumed(a) == total_consumed(b)

    def test_different_seed_differs(self):
        a = run_linear(EngineConfig(seed=3), duration=10.0, service_cv=0.5, jitter="exponential")
        b = run_linear(EngineConfig(seed=4), duration=10.0, service_cv=0.5, jitter="exponential")
        assert total_consumed(a) != total_consumed(b)


class TestEngineLifecycle:
    def test_same_graph_twice_rejected(self):
        engine = StreamProcessingEngine(EngineConfig())
        graph = make_linear_job()
        engine.submit(graph)
        with pytest.raises(RuntimeError):
            engine.submit(graph)

    def test_multiple_jobs_share_the_engine(self):
        engine = StreamProcessingEngine(EngineConfig())
        job_a = engine.submit(make_linear_job(source_rate=50.0))
        job_b = engine.submit(make_linear_job(source_rate=80.0))
        engine.run(10.0)
        for job in (job_a, job_b):
            sinks = [t.udf for t in job.runtime.vertex("Sink").tasks]
            assert sum(u.consumed for u in sinks) > 0
        assert engine.jobs == [job_a, job_b]
        # both jobs' tasks occupy slots in the shared pool
        assert engine.resources.active_tasks == 8

    def test_probe_applies_to_next_submit(self):
        engine = StreamProcessingEngine(EngineConfig())
        seen = []
        engine.add_vertex_probe("Worker", lambda latency, payload: seen.append(latency))
        engine.submit(make_linear_job(source_rate=50.0))
        engine.run(5.0)
        assert seen

    def test_stopping_one_job_keeps_the_other(self):
        engine = StreamProcessingEngine(EngineConfig())
        job_a = engine.submit(make_linear_job(source_rate=50.0))
        job_b = engine.submit(make_linear_job(source_rate=50.0))
        engine.run(5.0)
        job_a.stop()
        engine.run(5.0)
        sinks_b = [t.udf for t in job_b.runtime.vertex("Sink").tasks]
        consumed_mid = sum(u.consumed for u in sinks_b)
        engine.run(5.0)
        assert sum(u.consumed for u in sinks_b) > consumed_mid
        assert engine.resources.active_tasks == 4  # only job_b's tasks

    def test_stop_releases_all_slots(self):
        job = run_linear(duration=5.0)
        job.engine.stop()
        assert job.engine.resources.active_tasks == 0

    def test_parallelism_accessor(self):
        job = run_linear(duration=2.0, n_workers=3)
        assert job.parallelism("Worker") == 3

    def test_tracker_for_unknown_constraint_raises(self):
        job = run_linear(duration=2.0)
        from repro.core.constraints import LatencyConstraint
        from repro.graphs.sequences import JobSequence

        other = make_linear_job()
        js = JobSequence.from_names(other, ["Worker"])
        with pytest.raises(KeyError):
            job.engine.tracker_for(LatencyConstraint(js, 0.1))
