"""Partitioned single-scenario runs: slice planning, pooled execution,
deterministic merge.

The determinism wall from the issue: the same plan run with 1, 2 and 4
worker processes must produce byte-identical merged artifacts
(``partitions.json``, ``metrics.jsonl``, ``trace.jsonl``,
``manifest.json``); a slice crash is retried in isolation, and a slice
that fails every attempt aborts with :class:`PartitionError` instead of
merging a partial bundle.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import cli
from repro.obs.manifest import MANIFEST_FILE, METRICS_FILE, TRACE_FILE
from repro.sweep import PartitionError, PartitionPlan, ScenarioSpec, run_partitioned
from repro.sweep.partition import (
    PARTITION_STATS_FILE,
    PARTITIONS_FILE,
    slice_name,
)
from repro.sweep.pool import POLL_INTERVAL, PoolError, PoolJob, PoolStats, run_pool

#: every merged artifact that must be byte-identical across worker counts
MERGED_FILES = (PARTITIONS_FILE, METRICS_FILE, TRACE_FILE, MANIFEST_FILE)


def tiny_plan(**overrides):
    """A 2-slice steady plan small enough for unit tests."""
    kwargs = dict(workload="steady", seed=11, rate=250.0, bound=0.030,
                  duration=4.0, slices=2)
    kwargs.update(overrides)
    slices = kwargs.pop("slices")
    return PartitionPlan(ScenarioSpec(**kwargs), slices=slices)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# plan construction
# ----------------------------------------------------------------------


class TestPartitionPlan:
    def test_slices_split_seed_and_rate(self):
        plan = tiny_plan(seed=20, rate=300.0, slices=3)
        specs = plan.specs()
        assert [spec.seed for spec in specs] == [20, 21, 22]
        assert all(spec.rate == pytest.approx(100.0) for spec in specs)
        assert all(spec.workload == "steady" for spec in specs)

    def test_slice_set_is_independent_of_worker_count(self):
        plan = tiny_plan()
        keys = [spec.key for spec in plan.specs()]
        assert keys == [spec.key for spec in tiny_plan().specs()]

    def test_describe_is_deterministic(self):
        assert tiny_plan().describe() == tiny_plan().describe()
        assert tiny_plan().describe()["slices"] == 2

    @pytest.mark.parametrize("kwargs", [
        dict(workload="multi_job"),
        dict(slices=0),
        dict(slices=-1),
        dict(slices=2.0),
        dict(slices=True),
        dict(rate=0.0),
        dict(rate=-5.0),
    ])
    def test_invalid_plan_rejected(self, kwargs):
        with pytest.raises(PartitionError):
            tiny_plan(**kwargs)

    def test_unknown_scenario_rejected_by_the_registry(self):
        with pytest.raises(ValueError, match="unknown workload 'nope'"):
            tiny_plan(workload="nope")

    def test_slice_name_orders_lexically(self):
        names = [slice_name(index) for index in range(12)]
        assert names == sorted(names)


# ----------------------------------------------------------------------
# pooled execution + deterministic merge
# ----------------------------------------------------------------------


class TestPartitionedRun:
    def test_merge_is_byte_identical_across_worker_counts(self, tmp_path):
        """The acceptance scenario: 1, 2 and 4 workers, same bytes."""
        plan = tiny_plan()
        outs = {}
        for workers in (1, 2, 4):
            out = str(tmp_path / f"w{workers}")
            run_partitioned(plan, out, partitions=workers)
            outs[workers] = out
        for filename in MERGED_FILES:
            reference = read_bytes(os.path.join(outs[1], filename))
            assert read_bytes(os.path.join(outs[2], filename)) == reference
            assert read_bytes(os.path.join(outs[4], filename)) == reference

    def test_merged_totals_sum_slice_events(self, tmp_path):
        plan = tiny_plan()
        merged = run_partitioned(plan, str(tmp_path / "out"), partitions=2)
        slices = merged["slices"]
        assert len(slices) == plan.slices
        fired = sum(result["fired_events"] for result in slices)
        assert merged["totals"]["fired_events"] == fired
        assert fired > 0
        for bucket in merged["totals"]["constraints"].values():
            assert 0.0 <= bucket["fulfillment_ratio"] <= 1.0

    def test_slices_merge_in_index_order(self, tmp_path):
        plan = tiny_plan()
        merged = run_partitioned(plan, str(tmp_path / "out"), partitions=2)
        keys = [result["key"] for result in merged["slices"]]
        assert keys == [spec.key for spec in plan.specs()]

    def test_crashed_slice_is_retried_and_merge_unchanged(self, tmp_path):
        plan = tiny_plan()
        clean = str(tmp_path / "clean")
        run_partitioned(plan, clean, partitions=2)
        crashy = str(tmp_path / "crashy")
        run_partitioned(plan, crashy, partitions=2,
                        fail_once_marker=str(tmp_path / "crash-once"))
        for filename in MERGED_FILES:
            assert (read_bytes(os.path.join(crashy, filename))
                    == read_bytes(os.path.join(clean, filename)))
        stats = json.loads(read_bytes(os.path.join(crashy, PARTITION_STATS_FILE)))
        assert stats["retried"] == 1
        assert stats["done"] == plan.slices

    def test_slice_failing_every_attempt_aborts_without_partial_merge(self, tmp_path):
        plan = tiny_plan()
        out = str(tmp_path / "out")
        # a marker path that can never be created -> crashes every attempt
        marker = str(tmp_path / "missing-dir" / "marker")
        with pytest.raises(PartitionError, match="refusing to merge"):
            run_partitioned(plan, out, partitions=2, max_retries=1,
                            fail_once_marker=marker)
        for filename in MERGED_FILES:
            assert not os.path.exists(os.path.join(out, filename))

    def test_invalid_partitions_rejected(self, tmp_path):
        with pytest.raises(PartitionError):
            run_partitioned(tiny_plan(), str(tmp_path / "out"), partitions=0)

    def test_stats_record_wall_clock_only_outside_merged_files(self, tmp_path):
        out = str(tmp_path / "out")
        run_partitioned(tiny_plan(), out, partitions=2)
        stats = json.loads(read_bytes(os.path.join(out, PARTITION_STATS_FILE)))
        assert stats["partitions"] == 2
        assert stats["slices"] == 2
        assert stats["wall_s"] > 0.0
        assert stats["events_per_sec"] > 0.0
        merged = json.loads(read_bytes(os.path.join(out, PARTITIONS_FILE)))
        assert "wall_s" not in json.dumps(merged)


# ----------------------------------------------------------------------
# the generic pool
# ----------------------------------------------------------------------


def _pool_write_entry(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)


def _pool_noop_entry():
    pass


class TestPool:
    def test_runs_every_job(self, tmp_path):
        jobs = [
            PoolJob(f"job-{index}", _pool_write_entry,
                    (str(tmp_path / f"job-{index}.txt"), f"payload-{index}"))
            for index in range(4)
        ]
        stats, outcomes = run_pool(jobs, workers=2)
        assert stats.done == 4
        assert stats.failed == 0
        assert sorted(outcome.key for outcome in outcomes) == sorted(
            job.key for job in jobs)
        for index in range(4):
            assert (tmp_path / f"job-{index}.txt").read_text() == f"payload-{index}"

    def test_verify_failure_triggers_retry(self, tmp_path):
        # job writes its file, but verify only accepts it once a side
        # marker exists -> first attempt "fails", retry succeeds
        target = str(tmp_path / "out.txt")
        marker = tmp_path / "marker"

        def verify(job):
            if not marker.exists():
                marker.write_text("seen")
                return False
            return True

        jobs = [PoolJob("only", _pool_write_entry, (target, "data"))]
        stats, outcomes = run_pool(jobs, workers=1, max_retries=1, verify=verify)
        assert stats.done == 1
        assert stats.retried == 1
        assert outcomes[-1].attempts == 2

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(workers=-2), dict(workers=True),
        dict(max_retries=-1), dict(max_retries=False),
    ])
    def test_invalid_pool_args_rejected(self, kwargs):
        with pytest.raises(PoolError):
            run_pool([], **kwargs)

    def test_pool_wakes_on_worker_exit_not_on_a_timer(self):
        """One worker, 20 no-op jobs: a sleep per poll alone would take longer."""
        jobs = [PoolJob(f"job-{index}", _pool_noop_entry, ()) for index in range(20)]
        walls = []
        for _attempt in range(3):  # best of three: the box may be busy
            stats, _outcomes = run_pool(jobs, workers=1)
            assert stats.done == 20
            walls.append(stats.wall_s)
        assert min(walls) < 20 * POLL_INTERVAL

    def test_speedup_defaults_to_one(self):
        stats = PoolStats()
        assert stats.speedup == 1.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestPartitionCli:
    def test_run_partitions_writes_merged_bundle(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        code = cli.main(["run", "--partitions", "2", "--slices", "2",
                         "--duration", "4", "--rate", "250",
                         "--obs-dir", out])
        assert code == 0
        for filename in MERGED_FILES + (PARTITION_STATS_FILE,):
            assert os.path.exists(os.path.join(out, filename))
        captured = capsys.readouterr().out
        assert "fired events" in captured
        assert "constraint" in captured

    def test_merged_bundle_passes_trace_check(self, tmp_path, capsys):
        """repro trace --check validates a partitioned bundle's artifacts."""
        out = str(tmp_path / "bundle")
        assert cli.main(["run", "--partitions", "2", "--slices", "2",
                         "--duration", "4", "--rate", "250",
                         "--obs-dir", out]) == 0
        capsys.readouterr()
        assert cli.main(["trace", "--check", "--obs-dir", out]) == 0
        assert "trace check OK" in capsys.readouterr().out

    def test_run_partitions_failure_exits_nonzero(self, tmp_path, capsys):
        code = cli.main(["run", "--partitions", "0",
                         "--obs-dir", str(tmp_path / "x")])
        assert code == 1
        assert "partitioned run failed" in capsys.readouterr().out
