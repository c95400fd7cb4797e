"""Each control-plane fact is counted once, by the component that owns it.

Components keep plain int counters; :class:`repro.obs.sampling.MetricsSampler`
reads them at its tick through one table (``repro.obs.sampling.METRICS``)
and nothing outside ``repro.obs`` pushes a scalar into the registry. This
module pins that design and the identities one number per fact buys:

* a sampled ``metrics.jsonl`` row equals the owners' attributes at that
  instant;
* ``state.migrations_started == completed + rolled_back`` plus the
  migrations still in transfer, also where a watchdog escalation
  supersedes a transfer mid-flight;
* ``resources.admission_denials`` equals the job accounts' denials and
  the schedulers' admission + restart denials, and
  ``resources.preempted_tasks`` the schedulers' preemptions.

It also holds the regression test of a stateful scale-up the cluster
denies after the transfer: it must count as rolled back, not completed,
and move no bytes; and the check that ``actuation.superseded`` counts
every request a newer one replaced, escalations included.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro import cli
from repro.actuation.reconciler import ReconciliationController
from repro.builder import PipelineBuilder
from repro.core.latency_model import MigrationCostModel
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.obs.config import ObservabilityConfig
from repro.obs.sampling import METRICS, MetricsSampler
from repro.simulation.randomness import Gamma
from repro.workloads.multi_job import shared_cluster_pipelines
from repro.workloads.rates import ConstantRate
from repro.workloads.scenario import ScenarioSpec

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: CI's migration-chaos command (``.github/workflows/ci.yml``)
MIGRATION_CHAOS = [
    "chaos", "--stateful", "--migration-fail-at", "14",
    "--spike-at", "12", "--spike-duration", "18", "--crash-at", "30",
    "--dropout-at", "-1", "--duration", "60", "--checkpoint-interval", "10",
    "--pin-wall-time",
]


def denied_migration_engine(worker_pool: int = 1, name: str = "denied-migration", **state):
    """A stateful job whose scale-ups a one-worker pool (4 slots) denies.

    The worker is overloaded at p=2 (900 items/s x 4 ms), so the scaler
    keeps asking for more; every transfer completes and only then does
    the cluster refuse the slots. With ``worker_pool=30`` the same
    scale-up is granted. ``state`` goes to ``.stateful("worker", ...)``.
    """
    pipeline = (
        PipelineBuilder(name)
        .source(lambda now, rng: rng.random(), rate=ConstantRate(900.0))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(2, 1, 16))
        .sink()
        .constrain(bound=0.030)
        .stateful("worker", **state)
        .actuate()
        .scale()
        .observe()
        .build()
    )
    engine = StreamProcessingEngine(
        EngineConfig(worker_pool=worker_pool, slots_per_worker=4, seed=3)
    )
    job = engine.submit(pipeline)
    return engine, job


def slow_transfer_engine():
    """The same job with room to grow and a transfer slower than the watchdog.

    4 KiB per event at 200 kB/s makes every transfer outlast the
    watchdog's three intervals, so each escalation supersedes a request
    whose migration is still in transfer.
    """
    return denied_migration_engine(
        30, "slow-transfer", bytes_per_event=4096,
        cost=MigrationCostModel(transfer_bytes_per_s=2e5),
    )


# ----------------------------------------------------------------------
# a denied stateful scale-up is a rollback, not a completed migration
# ----------------------------------------------------------------------


class TestDeniedMigration:
    def test_denied_after_transfer_counts_as_rolled_back(self):
        engine, job = denied_migration_engine()
        engine.run(60.0)
        manager = job.state_manager
        assert manager.migrations_started > 0
        assert manager.migrations_started == (
            manager.migrations_completed
            + manager.migrations_rolled_back
            + len(job.reconciler._migrating)
        )
        assert manager.migrations_completed == 0
        assert manager.state_migrated_bytes == 0
        assert job.scheduler.admission_denials == manager.migrations_rolled_back
        assert manager.summary()["vertices"]["worker"]["parallelism"] == 2
        assert job.reconciler.summary()["migrations"] == {
            "started": manager.migrations_started,
            "applied": 0,
            "rolled_back": manager.migrations_rolled_back,
        }

    def test_granted_scale_up_counts_its_bytes(self):
        engine, job = denied_migration_engine(worker_pool=30)
        engine.run(60.0)
        manager = job.state_manager
        assert manager.migrations_started == manager.migrations_completed == 1
        assert manager.migrations_rolled_back == 0
        assert manager.state_migrated_bytes > 0


# ----------------------------------------------------------------------
# (a) nothing outside repro.obs pushes a scalar metric
# ----------------------------------------------------------------------

def _python_files():
    """Every module under ``src/repro`` outside ``obs/``, parsed."""
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] != "obs":
            yield relative, ast.parse(path.read_text(encoding="utf-8"))


def _not_a_registry(relative, function):
    """``metrics`` that names no registry: the builder's on/off flag and
    the benchmark-metric tables ``repro.evaluate`` compares."""
    return relative.parts[0] == "evaluate" or (str(relative), function) == (
        "builder.py", "observe"
    )


class TestNoPush:
    def test_no_counter_or_gauge_calls_outside_obs(self):
        offenders = [
            f"{relative}:{node.lineno}"
            for relative, tree in _python_files()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("counter", "gauge")
        ]
        assert offenders == []

    def test_no_metrics_parameter_outside_obs(self):
        offenders = []
        for relative, tree in _python_files():
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "metrics" in names and not _not_a_registry(relative, node.name):
                    offenders.append(f"{relative}:{node.lineno} {node.name}")
        assert offenders == []

    def test_metric_names_are_written_once(self):
        names = [name for name, _owner, _reader, _kind in METRICS]
        assert len(names) == len(set(names))
        dropped = {"qos.suppressed_collects", "reconciler.abandoned",
                   "actuation.migrations_started", "actuation.migrations_applied",
                   "actuation.migrations_rolled_back"}
        assert dropped.isdisjoint(names)


# ----------------------------------------------------------------------
# (b) a sampled row equals the owners, and the identities hold
# ----------------------------------------------------------------------


def _owners(engine, owner):
    """The components ``owner`` names, resolved without the sampler."""
    if owner == "resources":
        return [engine.resources]
    if owner == "managers":
        return [m for job in engine.jobs for m in job._managers]
    return [getattr(job, owner) for job in engine.jobs if getattr(job, owner) is not None]


def _check_tick(sampler, now):
    engine = sampler.engine
    row = sampler.snapshots[-1]["metrics"]
    for name, owner, reader, _kind in METRICS:
        if owner == "sampler":
            continue
        components = _owners(engine, owner)
        if not components and owner in ("reconciler", "state_manager"):
            assert name not in row
            continue
        expected = sum(
            getattr(c, reader) if isinstance(reader, str) else reader(c)
            for c in components
        )
        assert row[name] == expected, (now, name)
    for job in engine.jobs:
        manager = job.state_manager
        if manager is not None:
            in_transfer = len(job.reconciler._migrating) if job.reconciler else 0
            assert manager.migrations_started == (
                manager.migrations_completed + manager.migrations_rolled_back + in_transfer
            ), now
    resources = engine.resources
    schedulers = [job.scheduler for job in engine.jobs]
    assert resources.admission_denials == sum(
        a.denials for a in resources._accounts.values()
    ) == sum(s.admission_denials + s.restart_denials for s in schedulers)
    assert resources.preempted_tasks == sum(s.preemptions for s in schedulers)
    assert row["scheduler.admission_denials"] + row["scheduler.restart_denials"] == (
        resources.admission_denials
    )


@pytest.fixture
def checked_ticks(monkeypatch):
    """Check every sampled row as it is taken; yields the tick log."""
    ticks = []
    original = MetricsSampler.sample

    def sample(self, now):
        original(self, now)
        _check_tick(self, now)
        ticks.append(self.snapshots[-1]["metrics"])

    monkeypatch.setattr(MetricsSampler, "sample", sample)
    return ticks


def _golden(module):
    def run(tmp_path):
        __import__(module).run_scenario(str(tmp_path))
    return run


def _migration_chaos(tmp_path, capsys):
    assert cli.main(MIGRATION_CHAOS + ["--obs-dir", str(tmp_path)]) == 0
    capsys.readouterr()


def _denied_migration(tmp_path):
    engine, _job = denied_migration_engine()
    engine.run(60.0)


def _slow_transfer(tmp_path):
    engine, _job = slow_transfer_engine()
    engine.run(60.0)


def _shared_cluster(tmp_path):
    """The canonical two-job contended scenario, sampled (60 s)."""
    spec = ScenarioSpec(seed=11, rate=1400.0, bound=0.06, workload="multi_job",
                        duration=60.0)
    knobs = spec.resolved()
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=spec.seed, worker_pool=knobs["worker_pool"],
                     slots_per_worker=knobs["slots_per_worker"]),
        observability=ObservabilityConfig(),
    )
    for pipeline in shared_cluster_pipelines(spec):
        engine.submit(pipeline)
    engine.run(spec.duration)
    resources = engine.resources
    assert resources.admission_denials > 0 and resources.preempted_tasks > 0


RUNS = {
    "golden": _golden("golden_scenario"),
    "golden-macro": _golden("golden_macro_scenario"),
    "golden-stateful": _golden("golden_stateful_scenario"),
    "denied-migration": _denied_migration,
    "shared-cluster": _shared_cluster,
    "slow-transfer": _slow_transfer,
}


class TestSampledRowsEqualOwners:
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_rows_equal_owners(self, run, checked_ticks, tmp_path):
        RUNS[run](tmp_path)
        assert checked_ticks

    def test_migration_chaos_rows_equal_owners(self, checked_ticks, tmp_path, capsys):
        _migration_chaos(tmp_path, capsys)
        assert checked_ticks
        last = checked_ticks[-1]
        assert last["state.migrations_started"] > 0
        assert last["state.migrations_rolled_back"] > 0

    def test_one_schema_per_run(self, checked_ticks, tmp_path):
        _denied_migration(tmp_path)
        first = list(checked_ticks[0])
        assert all(list(row) == first for row in checked_ticks)
        scalars = [name for name in first if not name.startswith("service_time.")]
        assert scalars == [name for name, _o, _r, _k in METRICS]


# ----------------------------------------------------------------------
# one supersession path: a replaced request is counted, whoever replaces it
# ----------------------------------------------------------------------


class TestSupersessionIsCounted:
    @pytest.mark.parametrize("run", ["golden-stateful", "denied-migration", "slow-transfer"])
    def test_superseded_equals_escalations_that_replaced_a_request(
        self, run, monkeypatch, tmp_path
    ):
        issued = []  # (reconciler, escalated, replaced an in-flight request)
        original = ReconciliationController._issue

        def _issue(self, vertex, target, current, round, escalated=False):
            issued.append((self, escalated, vertex in self.in_flight))
            return original(self, vertex, target, current, round, escalated)

        monkeypatch.setattr(ReconciliationController, "_issue", _issue)
        RUNS[run](tmp_path)
        reconcilers = {id(rec): rec for rec, _e, _r in issued}.values()
        replacing = [escalated for _rec, escalated, replaced in issued if replaced]
        assert replacing and all(replacing)
        assert sum(rec.superseded_requests for rec in reconcilers) == len(replacing)
        assert sum(rec.escalations for rec in reconcilers) >= len(replacing)

    def test_a_transfer_superseded_mid_flight_is_rolled_back(self):
        engine, job = slow_transfer_engine()
        engine.run(60.0)
        manager, rec = job.state_manager, job.reconciler
        assert rec.superseded_requests >= 1 and manager.migrations_rolled_back >= 1
        assert manager.migrations_started == (
            manager.migrations_completed + manager.migrations_rolled_back
            + len(rec._migrating)
        )
        records = [r for r in job.trace.records if r.branch == "migration-rolled-back"]
        assert any("superseded mid-transfer" in r.detail for r in records)


# ----------------------------------------------------------------------
# trace --check validates metrics.jsonl
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_bundle(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bundle"))
    assert cli.main(["run", "--duration", "20", "--obs-dir", out]) == 0
    return out


def _rewrite_metrics(bundle, tmp_path, edit):
    import json
    import shutil

    out = tmp_path / "edited"
    shutil.copytree(bundle, out)
    path = out / "metrics.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(out)


def _drop_a_name(rows):
    del rows[-1]["metrics"]["scheduler.deploys"]


def _decrease_a_counter(rows):
    rows[-1]["metrics"]["qos.collects"] = rows[-2]["metrics"]["qos.collects"] - 1


def _nan_gauge(rows):
    rows[1]["metrics"]["tasks.cpu_utilization"] = float("nan")


def _repeat_a_time(rows):
    rows[2]["time"] = rows[1]["time"]


class TestTraceCheckMetrics:
    def test_a_run_bundle_passes(self, run_bundle, capsys):
        assert cli.main(["trace", "--check", "--obs-dir", run_bundle]) == 0
        assert "metrics.jsonl" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, message", [
        (_drop_a_name, "missing scheduler.deploys"),
        (_decrease_a_counter, "counter qos.collects decreased"),
        (_nan_gauge, "tasks.cpu_utilization = nan is not a finite number"),
        (_repeat_a_time, "does not follow"),
    ], ids=["missing-name", "decreasing-counter", "nan", "time-not-rising"])
    def test_a_broken_row_fails(self, run_bundle, tmp_path, capsys, edit, message):
        out = _rewrite_metrics(run_bundle, tmp_path, edit)
        capsys.readouterr()
        assert cli.main(["trace", "--check", "--obs-dir", out]) == 1
        report = capsys.readouterr().out.splitlines()
        assert report[0] == "trace check FAILED (1 errors):"
        assert message in report[1]

    def test_a_gauge_may_fall(self, run_bundle, tmp_path):
        def fall(rows):
            rows[-1]["metrics"]["cluster.active_tasks"] = 0
        out = _rewrite_metrics(run_bundle, tmp_path, fall)
        assert cli.main(["trace", "--check", "--obs-dir", out]) == 0
