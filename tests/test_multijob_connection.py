"""Tests for multi-job deployment."""

import pytest

from repro.core.constraints import LatencyConstraint
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.graphs.sequences import JobSequence

from conftest import make_linear_job


class TestMultiJob:
    def test_jobs_isolated_measurements(self):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        job_a = engine.submit(make_linear_job(source_rate=100.0, service_mean=0.002))
        job_b = engine.submit(make_linear_job(source_rate=100.0, service_mean=0.008))
        engine.run(15.0)
        service_a = job_a.last_summary.vertex("Worker").service_mean
        service_b = job_b.last_summary.vertex("Worker").service_mean
        assert service_a == pytest.approx(0.002, rel=0.2)
        assert service_b == pytest.approx(0.008, rel=0.2)

    def test_jobs_share_pool_until_exhaustion(self):
        from repro.engine.resources import InsufficientResourcesError

        engine = StreamProcessingEngine(EngineConfig(worker_pool=1, slots_per_worker=4))
        engine.submit(make_linear_job())  # 1 + 2 + 1 = 4 slots
        with pytest.raises(InsufficientResourcesError):
            engine.submit(make_linear_job())

    def test_per_job_constraints_tracked_independently(self):
        engine = StreamProcessingEngine(
            EngineConfig.nephele_adaptive(elastic=True, seed=3)
        )
        graph_a = make_linear_job(source_rate=100.0, worker_min=1, worker_max=8)
        graph_b = make_linear_job(source_rate=100.0, worker_min=1, worker_max=8)
        constraint_a = LatencyConstraint(
            JobSequence.from_names(graph_a, ["Worker"], leading_edge=True, trailing_edge=True),
            0.050,
        )
        constraint_b = LatencyConstraint(
            JobSequence.from_names(graph_b, ["Worker"], leading_edge=True, trailing_edge=True),
            0.050,
        )
        job_a = engine.submit(graph_a, [constraint_a])
        job_b = engine.submit(graph_b, [constraint_b])
        engine.run(30.0)
        assert job_a.tracker_for(constraint_a).intervals_observed > 0
        assert job_b.tracker_for(constraint_b).intervals_observed > 0
        with pytest.raises(KeyError):
            job_a.tracker_for(constraint_b)
        # the engine-level lookup spans all jobs
        assert engine.tracker_for(constraint_b) is job_b.trackers[0]

    def test_elastic_scalers_act_independently(self):
        engine = StreamProcessingEngine(
            EngineConfig.nephele_adaptive(elastic=True, seed=4)
        )
        graph_hot = make_linear_job(source_rate=800.0, service_mean=0.004,
                                    worker_min=1, worker_max=16)
        graph_cold = make_linear_job(source_rate=20.0, service_mean=0.004,
                                     n_workers=4, worker_min=1, worker_max=16)
        c_hot = LatencyConstraint(
            JobSequence.from_names(graph_hot, ["Worker"], leading_edge=True, trailing_edge=True),
            0.030,
        )
        c_cold = LatencyConstraint(
            JobSequence.from_names(graph_cold, ["Worker"], leading_edge=True, trailing_edge=True),
            0.030,
        )
        job_hot = engine.submit(graph_hot, [c_hot])
        job_cold = engine.submit(graph_cold, [c_cold])
        engine.run(60.0)
        assert job_hot.parallelism("Worker") >= 4  # 800/s x 4 ms = 3.2 busy
        assert job_cold.parallelism("Worker") <= 2  # shrunk to near-minimum

    def _two_jobs(self):
        engine = StreamProcessingEngine(EngineConfig(seed=2))
        graphs = [make_linear_job(source_rate=100.0), make_linear_job(source_rate=40.0)]
        graphs[0].name, graphs[1].name = "alpha", "beta"
        return engine, [engine.submit(graph) for graph in graphs]

    def test_observers_refuse_to_guess_a_job_on_a_shared_engine(self, tmp_path):
        """``export_run``/``SeriesRecorder`` name the jobs instead of
        silently answering with the first one."""
        from repro.experiments.recording import SeriesRecorder

        engine, _ = self._two_jobs()
        with pytest.raises(ValueError, match="'alpha', 'beta'"):
            engine.export_run(str(tmp_path))
        SeriesRecorder(engine, interval=5.0)
        with pytest.raises(ValueError, match="'alpha', 'beta'"):
            engine.run(6.0)  # the recorder's first sample

    def test_observers_work_once_given_the_job(self, tmp_path):
        from repro.experiments.recording import SeriesRecorder
        from repro.obs.manifest import MANIFEST_FILE

        engine, (_, beta) = self._two_jobs()
        recorder = SeriesRecorder(engine, interval=5.0, source_vertex="Source")
        recorder.add_sink_feed("e2e", "Sink")
        recorder.job = beta
        engine.run(11.0)
        # beta's source runs at 40/s, alpha's at 100/s
        assert [row.effective_rate for row in recorder.rows] == pytest.approx(
            [40.0, 40.0], rel=0.1
        )
        assert all(row.latency_mean["e2e"] is not None for row in recorder.rows)
        paths = engine.export_run(str(tmp_path), job=beta)
        assert paths["manifest"].endswith(MANIFEST_FILE)

    def test_accessors_before_submit(self, tmp_path):
        engine = StreamProcessingEngine(EngineConfig())
        assert engine.jobs == []
        with pytest.raises(RuntimeError, match="no job submitted"):
            engine.export_run(str(tmp_path))

