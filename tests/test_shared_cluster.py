"""The shared-cluster scenario: contention, honesty, traces, metrics.

End-to-end coverage of the multi-tenant engine: the canonical two-job
scenario produces admission denials, preemptions and a fairness score
deterministically; ``set_parallelism`` never reports a scale-up applied
without holding the slots (the motivating bug); duplicate vertex names
across jobs get job-qualified metric keys; and denial/preemption land
as their own branches in the decision trace.
"""

import pytest

from repro.builder import PipelineBuilder
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.engine.scheduler import ScalingResult
from repro.obs.config import ObservabilityConfig
from repro.obs.trace import (
    BRANCH_ADMISSION_DENIED,
    BRANCH_PREEMPTED,
    TRACE_SCHEMA_VERSION,
)
from repro.simulation.randomness import Gamma
from repro.workloads.multi_job import (
    collect_shared_cluster_result,
    shared_cluster_pipelines,
)
from repro.workloads.rates import ConstantRate
from repro.workloads.scenario import ScenarioSpec, build


def _short_spec(**overrides):
    """The canonical shared-cluster scenario, shortened to 60 s."""
    kwargs = dict(seed=11, rate=1400.0, bound=0.06, workload="multi_job",
                  duration=60.0)
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def _run(spec):
    engine, jobs, _recorder = build(spec)
    engine.run(spec.duration)
    return collect_shared_cluster_result(engine, jobs)


@pytest.fixture(scope="module")
def canonical_result():
    return _run(_short_spec())


class TestCanonicalScenario:
    def test_contention_actually_happens(self, canonical_result):
        cluster = canonical_result["cluster"]
        assert cluster["admission_denials"] >= 1
        assert cluster["preempted_tasks"] >= 1

    def test_per_job_fulfillment_reported(self, canonical_result):
        jobs = canonical_result["jobs"]
        assert [j["job"] for j in jobs] == ["alpha", "beta"]
        for job in jobs:
            assert job["fulfillment"] is not None
            assert 0.0 <= job["fulfillment"] <= 1.0

    def test_fairness_index_reported(self, canonical_result):
        assert 0.0 < canonical_result["fairness"] <= 1.0

    def test_heavier_job_preempts_lighter_one(self, canonical_result):
        alpha, beta = canonical_result["jobs"]
        assert alpha["account"]["preemptions_inflicted"] >= 1
        assert beta["account"]["preemptions_suffered"] >= 1
        assert beta["account"]["preemptions_suffered"] == beta["preempted_tasks"]

    def test_usage_attributed_per_job(self, canonical_result):
        total = canonical_result["cluster"]["task_hours"] * 3600.0
        per_job = sum(
            j["account"]["task_seconds"] for j in canonical_result["jobs"]
        )
        assert per_job == pytest.approx(total, rel=1e-6)

    def test_run_is_deterministic(self, canonical_result):
        assert _run(_short_spec()) == canonical_result


class TestCanonicalOutcome:
    """The canonical 240-s run's outcome, pinned to the last digit.

    ``repro run --shared-cluster`` prints these (0.617 / 0.404, 30
    denials, 3 preempted, Jain 0.9584); a change to admission, arbitration
    or placement that moves any of them shows here first.
    """

    def test_every_job_and_cluster_number_is_pinned(self):
        result = _run(_short_spec(duration=240.0))
        jobs = {
            job["job"]: (
                job["fulfillment"], job["violations"],
                job["account"]["denials"], job["account"]["preemptions_suffered"],
                job["account"]["preemptions_inflicted"],
                job["account"]["task_seconds"],
            )
            for job in result["jobs"]
        }
        assert jobs == {
            "alpha": (0.6170212765957447, 18, 15, 0, 3, 1107.5050503765706),
            "beta": (0.4042553191489362, 28, 15, 3, 0, 1033.0068974435032),
        }
        assert result["fairness"] == 0.9584026622296176
        assert result["cluster"]["admission_denials"] == 30
        assert result["cluster"]["preempted_tasks"] == 3


class TestAdmissionHonesty:
    """Satellite 1: no applied-without-slots, no partial wiring."""

    def _two_jobs(self, worker_pool=2, slots_per_worker=4):
        def pipeline(name):
            return (
                PipelineBuilder(name)
                .source(lambda now, rng: rng.random(), rate=ConstantRate(50.0))
                .map("worker", lambda x: x, service=Gamma(0.002, 0.7),
                     parallelism=(1, 1, 16))
                .sink()
                .build()
            )

        engine = StreamProcessingEngine(EngineConfig(
            elastic=False, seed=3, worker_pool=worker_pool,
            slots_per_worker=slots_per_worker,
        ))
        return engine, engine.submit(pipeline("a")), engine.submit(pipeline("b"))

    def test_racing_scale_ups_cannot_overcommit(self):
        # 4 slots, 6 held after deploy... pool of 2x2=4 with 2 jobs x 3
        # tasks does not fit — use a pool with exactly 2 slots of slack.
        engine, job_a, job_b = self._two_jobs(worker_pool=2, slots_per_worker=4)
        resources = engine.resources
        slack = resources.allocatable_slots()
        assert slack == 2

        # Both jobs race scale-ups into the remaining slack before either
        # materializes. The first grab holds its slots at request time,
        # so the second must be denied *synchronously* — not blow up
        # inside a sim-heap callback startup_delay later.
        first = job_a.scheduler.set_parallelism("worker", 3)  # +2, takes slack
        second = job_b.scheduler.set_parallelism("worker", 3)  # +2, must lose
        assert first == ScalingResult(2, 2)
        assert second.denied
        assert second.applied == 0
        assert "insufficient cluster capacity" in second.reason

        engine.run(5.0)  # past startup_delay: the granted scale-up lands
        assert job_a.runtime.vertices["worker"].parallelism == 3
        assert job_b.runtime.vertices["worker"].parallelism == 1
        assert resources.active_tasks <= resources.total_slots
        assert job_a.account.reserved == 0 and job_b.account.reserved == 0

    def test_denied_request_leaks_no_reservation(self):
        engine, job_a, _job_b = self._two_jobs(worker_pool=2, slots_per_worker=4)
        before = engine.resources.allocatable_slots()
        result = job_a.scheduler.set_parallelism("worker", 99)
        assert result.denied and result.applied == 0
        assert engine.resources.allocatable_slots() == before
        assert engine.resources.admission_denials == 1

    def test_partial_grant_never_happens(self):
        # The all-or-nothing contract: a request for more than the slack
        # is denied outright rather than applied partially.
        engine, job_a, _job_b = self._two_jobs(worker_pool=2, slots_per_worker=4)
        assert engine.resources.allocatable_slots() == 2
        result = job_a.scheduler.set_parallelism("worker", 4)  # +3 > slack
        assert result.denied
        engine.run(5.0)
        assert job_a.runtime.vertices["worker"].parallelism == 1


class TestQualifiedMetricKeys:
    """Satellite 3: duplicate vertex names across jobs stay separated."""

    def _observed_engine(self):
        params = _short_spec()
        knobs = params.resolved()
        engine = StreamProcessingEngine(
            EngineConfig(
                elastic=True, seed=params.seed,
                worker_pool=knobs["worker_pool"],
                slots_per_worker=knobs["slots_per_worker"],
            ),
            observability=ObservabilityConfig(),
        )
        alpha, beta = shared_cluster_pipelines(params)
        return engine, engine.submit(alpha), engine.submit(beta), params

    def test_first_job_keeps_bare_keys_second_is_qualified(self):
        engine, job_a, job_b, _params = self._observed_engine()
        assert job_a._metric_keys["worker"] == "worker"
        assert job_b._metric_keys["worker"] == f"worker#job{job_b.job_id}"

    def test_metric_rows_never_mix(self):
        engine, job_a, job_b, params = self._observed_engine()
        engine.run(20.0)
        names = set(engine.metrics.snapshot())
        assert "service_time.worker" in names
        assert f"service_time.worker#job{job_b.job_id}" in names

    def test_account_names_decollide_too(self):
        engine = StreamProcessingEngine(EngineConfig(worker_pool=4))

        def pipeline():
            return (
                PipelineBuilder("same-name")
                .source(lambda now, rng: 1.0, rate=ConstantRate(10.0))
                .sink()
                .build()
            )

        job_a = engine.submit(pipeline())
        job_b = engine.submit(pipeline())
        assert job_a.account.name == "same-name"
        assert job_b.account.name == f"same-name#job{job_b.job_id}"


class TestTraceBranches:
    """Denials and preemptions land as decision-trace records."""

    @pytest.fixture(scope="class")
    def traced_jobs(self):
        params = _short_spec()
        knobs = params.resolved()
        engine = StreamProcessingEngine(
            EngineConfig(
                elastic=True, seed=params.seed,
                worker_pool=knobs["worker_pool"],
                slots_per_worker=knobs["slots_per_worker"],
            ),
            observability=ObservabilityConfig(metrics=False),
        )
        alpha, beta = shared_cluster_pipelines(params)
        jobs = [engine.submit(alpha), engine.submit(beta)]
        engine.run(params.duration)
        return jobs

    def test_denials_recorded_in_trace(self, traced_jobs):
        branches = {}
        for job in traced_jobs:
            for branch, count in job.trace.branches().items():
                branches[branch] = branches.get(branch, 0) + count
        assert branches.get(BRANCH_ADMISSION_DENIED, 0) >= 1
        assert branches.get(BRANCH_PREEMPTED, 0) >= 1

    def test_v4_records_carry_schema_4(self, traced_jobs):
        seen = set()
        for job in traced_jobs:
            for record in job.trace:
                if record.branch in (BRANCH_ADMISSION_DENIED, BRANCH_PREEMPTED):
                    seen.add(record.to_dict()["schema"])
                    assert record.vertex  # admission branches must name a vertex
        assert seen == {TRACE_SCHEMA_VERSION}

    def test_preempted_record_names_the_beneficiary(self, traced_jobs):
        _alpha, beta = traced_jobs
        preempted = [
            r for r in beta.trace if r.branch == BRANCH_PREEMPTED
        ]
        assert preempted
        assert all("alpha" in r.detail for r in preempted)


class TestMultiJobSweepShard:
    def test_shard_result_envelope(self):
        from repro.sweep.shard import run_shard

        spec = ScenarioSpec(seed=1, rate=1400.0, bound=0.06,
                         workload="multi_job", duration=30.0)
        result = run_shard(spec)
        assert result["shard_schema"] == 1
        assert result["key"].startswith("multi_job-")
        assert {c["name"] for c in result["constraints"]} == {
            "alpha-e2e", "beta-e2e"
        }
        assert set(result["final_parallelism"]) == {
            "alpha.source", "alpha.worker", "alpha.sink",
            "beta.source", "beta.worker", "beta.sink",
        }
        assert "fairness" in result
        assert result["cluster"]["total_slots"] == 12
        assert result["series"]["task_seconds"] > 0
        # deterministic: the merge/byte-identity contract of the sweep
        assert run_shard(spec) == result

    def test_multi_job_is_a_valid_grid_workload(self):
        from repro.sweep.grid import SweepGrid

        grid = SweepGrid.shared_cluster()
        shards = grid.expand()
        assert len(shards) == 2
        assert all(s.workload == "multi_job" for s in shards)

    def test_build_submits_both_jobs_to_one_engine(self):
        # the one build() has no single-pipeline special case to refuse
        spec = ScenarioSpec(seed=1, rate=100.0, bound=0.05, workload="multi_job")
        engine, jobs, recorder = build(spec)
        assert [job.job_graph.name for job in jobs] == ["alpha", "beta"]
        assert engine.jobs == jobs
        assert recorder is None
