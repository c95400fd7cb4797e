"""Sweep orchestrator: grid expansion, crash isolation, resume, merging.

The acceptance scenario from the issue: a sweep of >= 8 shards run with
two workers produces a merged aggregate byte-identical to the serial run
of the same grid; killing a worker mid-sweep and re-running with resume
skips completed shards and yields the same aggregate.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
from dataclasses import replace

import pytest

from repro import cli
from repro.experiments.dashboard import SweepDashboard
from repro.experiments.report import write_json
from repro.obs.manifest import MANIFEST_FILE, RunManifest
from repro.sweep import (
    ScenarioSpec,
    SweepError,
    SweepGrid,
    merge_shard_results,
    read_aggregate,
    run_sweep,
    run_shard,
)
from repro.sweep.pool import POLL_INTERVAL, PoolError, PoolJob, run_pool
from repro.sweep.report import AGGREGATE_FILE
from repro.sweep.shard import (
    RESULT_FILE,
    execute_shard,
    load_shard_result,
)
from repro.workloads.scenario import group_key


def tiny_grid(**overrides):
    """A 2-shard grid small enough for unit tests."""
    kwargs = dict(
        name="tiny", seeds=(1, 2), rates=(250.0,), bounds=(0.030,),
        workloads=("steady",), actuation=(False,), duration=4.0,
    )
    kwargs.update(overrides)
    return SweepGrid(**kwargs)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# grid expansion
# ----------------------------------------------------------------------


class TestSweepGrid:
    def test_quick_grid_has_eight_shards(self):
        grid = SweepGrid.quick()
        assert len(grid) == 8
        assert len(grid.expand()) == 8

    def test_expansion_is_ordered_by_key_and_unique(self):
        grid = SweepGrid(seeds=(3, 1, 2), rates=(400.0, 250.0),
                         workloads=("spike", "steady"), actuation=(True, False))
        keys = [spec.key for spec in grid.expand()]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert len(keys) == 3 * 2 * 2 * 2

    def test_describe_roundtrips_through_from_dict(self):
        grid = SweepGrid(seeds=(5, 6), rates=(300.0,), duration=12.0)
        clone = SweepGrid.from_dict(grid.describe())
        assert clone.describe() == grid.describe()

    def test_grid_file_roundtrip(self, tmp_path):
        grid = tiny_grid()
        path = str(tmp_path / "grid.json")
        write_json(path, grid.describe())
        assert SweepGrid.from_file(path).describe() == grid.describe()

    @pytest.mark.parametrize("kwargs", [
        {"seeds": ()},
        {"rates": ()},
        {"bounds": ()},
        {"workloads": ()},
        {"actuation": ()},
        {"workloads": ("nope",)},
        {"duration": 0.0},
        {"duration": float("inf")},
        {"rates": (-1.0,)},
        {"name": ""},
    ])
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            tiny_grid(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"seeds": (1.5,)},
        {"seeds": (True,)},
        {"actuation": (1,)},
        {"duration": "10"},
    ])
    def test_wrong_types_rejected(self, kwargs):
        with pytest.raises(TypeError):
            tiny_grid(**kwargs)

    def test_unknown_grid_file_keys_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"name": "x", "surprise": 1})

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid.from_dict({"schema": 99})


# ----------------------------------------------------------------------
# single shards
# ----------------------------------------------------------------------


class TestShard:
    def test_key_is_stable_and_filesystem_safe(self):
        key = ScenarioSpec(7, 250.0, 0.030, "steady", False).key
        assert key == "steady-r250-b30ms-sync-scale-reactively-s0007"
        assert "/" not in key and " " not in key
        assert ScenarioSpec(7, 250.0, 0.030).key == key

    def test_key_carries_the_policy_token(self):
        key = ScenarioSpec(7, 250.0, 0.030, policy="drs").key
        assert key == "steady-r250-b30ms-sync-drs-s0007"
        # knobbed specs hash their knobs into the token (filesystem-safe)
        knobbed = ScenarioSpec(
            7, 250.0, 0.030, policy="drs:target_fraction=0.9"
        ).key
        assert knobbed.startswith("steady-r250-b30ms-sync-drs+")
        assert knobbed != key
        assert "/" not in knobbed and "=" not in knobbed

    def test_run_shard_is_deterministic(self):
        spec = ScenarioSpec(seed=3, rate=250.0, bound=0.030, duration=4.0)
        assert run_shard(spec) == run_shard(spec)

    def test_result_contains_the_merge_fields(self):
        spec = ScenarioSpec(seed=3, rate=250.0, bound=0.030, duration=4.0)
        result = run_shard(spec)
        assert result["key"] == spec.key
        assert result["params"] == spec.params()
        assert result["constraints"][0]["name"] == "e2e"
        assert "worker" in result["final_parallelism"]
        assert result["series"]["intervals"] >= 0
        json.dumps(result)  # checkpoint-serializable

    def test_actuation_shard_records_reconciler_summary(self):
        spec = ScenarioSpec(seed=3, rate=250.0, bound=0.030, duration=4.0,
                         actuation=True)
        result = run_shard(spec)
        assert result["actuation"] is not None
        assert "requests" in result["actuation"]

    def test_execute_shard_checkpoints_result_and_manifest(self, tmp_path):
        spec = ScenarioSpec(seed=2, rate=250.0, bound=0.030, duration=4.0)
        shard_dir = str(tmp_path / spec.key)
        result = execute_shard(spec, shard_dir)
        assert load_shard_result(shard_dir, spec) == result
        manifest = RunManifest.read(os.path.join(shard_dir, MANIFEST_FILE))
        assert manifest["sweep"] == {"shard": spec.key, "params": spec.params()}
        assert manifest["wall_time_s"] == 0.0  # pinned for byte-identity

    def test_load_rejects_checkpoint_of_different_params(self, tmp_path):
        spec = ScenarioSpec(seed=2, rate=250.0, bound=0.030, duration=4.0)
        shard_dir = str(tmp_path / spec.key)
        execute_shard(spec, shard_dir)
        changed = ScenarioSpec(seed=2, rate=250.0, bound=0.030, duration=6.0)
        assert load_shard_result(shard_dir, changed) is None
        assert load_shard_result(shard_dir, spec) is not None

    def test_load_rejects_garbage(self, tmp_path):
        shard_dir = str(tmp_path / "shard")
        os.makedirs(shard_dir)
        assert load_shard_result(shard_dir) is None  # missing
        with open(os.path.join(shard_dir, RESULT_FILE), "w") as handle:
            handle.write("{not json")
        assert load_shard_result(shard_dir) is None

    def test_fail_once_marker_not_recorded_in_params(self):
        spec = ScenarioSpec(seed=1, rate=250.0, bound=0.030,
                         fail_once_marker="/tmp/marker")
        assert "fail_once_marker" not in spec.params()
        assert spec.to_dict()["fail_once_marker"] == "/tmp/marker"
        assert ScenarioSpec.from_dict(spec.to_dict()).fail_once_marker == "/tmp/marker"


# ----------------------------------------------------------------------
# orchestration: parallel == serial, resume, crash isolation
# ----------------------------------------------------------------------


class TestOrchestrator:
    def test_parallel_aggregate_byte_identical_to_serial(self, tmp_path):
        """Issue acceptance: >= 8 shards, --workers 2 == --workers 1."""
        grid = SweepGrid.quick()
        assert len(grid) >= 8
        serial = run_sweep(grid, str(tmp_path / "serial"), workers=1)
        parallel = run_sweep(grid, str(tmp_path / "parallel"), workers=2)
        assert serial.stats.done == parallel.stats.done == 8
        assert read_bytes(serial.aggregate_path) == read_bytes(parallel.aggregate_path)

    def test_resume_skips_completed_shards_same_aggregate(self, tmp_path):
        out = str(tmp_path / "sweep")
        grid = tiny_grid()
        first = run_sweep(grid, out, workers=2)
        before = read_bytes(first.aggregate_path)
        victim = first.aggregate["shards"][0]["key"]
        shutil.rmtree(os.path.join(out, "shards", victim))
        second = run_sweep(grid, out, workers=2, resume=True)
        assert second.stats.skipped == len(grid) - 1
        assert second.stats.done == len(grid)
        assert read_bytes(second.aggregate_path) == before

    def test_existing_checkpoints_require_resume(self, tmp_path):
        out = str(tmp_path / "sweep")
        grid = tiny_grid()
        run_sweep(grid, out, workers=1)
        with pytest.raises(SweepError, match="resume"):
            run_sweep(grid, out, workers=1)

    def test_resume_with_different_grid_rejected(self, tmp_path):
        out = str(tmp_path / "sweep")
        run_sweep(tiny_grid(), out, workers=1)
        with pytest.raises(SweepError, match="grid mismatch"):
            run_sweep(tiny_grid(duration=6.0), out, workers=1, resume=True)

    def test_crashed_worker_is_retried_without_aborting(self, tmp_path):
        """A killed worker fails only its shard; the retry completes it."""
        grid = tiny_grid()
        clean = run_sweep(grid, str(tmp_path / "clean"), workers=2)
        specs = grid.expand()
        specs[0] = replace(specs[0], fail_once_marker=str(tmp_path / "crash-once"))
        crashy = tiny_grid()
        crashy.expand = lambda: specs  # inject the fail-once shard
        crashed = run_sweep(crashy, str(tmp_path / "crashy"), workers=2)
        assert crashed.stats.retried == 1
        assert crashed.stats.failed == 0
        assert crashed.stats.done == len(grid)
        assert read_bytes(crashed.aggregate_path) == read_bytes(clean.aggregate_path)

    def test_shard_failing_every_attempt_is_reported_not_fatal(self, tmp_path):
        grid = tiny_grid()
        specs = grid.expand()
        # a marker path that can never be created -> crashes every attempt
        specs[0] = replace(
            specs[0], fail_once_marker=str(tmp_path / "missing-dir" / "marker")
        )
        grid.expand = lambda: specs
        result = run_sweep(grid, str(tmp_path / "out"), workers=2, max_retries=1)
        assert result.stats.failed == 1
        assert result.stats.done == len(specs) - 1
        failed_keys = [o.key for o in result.outcomes if o.status == "failed"]
        assert failed_keys == [specs[0].key]
        merged_keys = [shard["key"] for shard in result.aggregate["shards"]]
        assert specs[0].key not in merged_keys

    def test_shard_files_do_not_depend_on_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        """The same sweep run inside a git tree and outside one writes the same bytes.

        Shard files must not record the cwd's repository state: under an
        untracked ``--out`` in a checkout they would report their own
        output as a dirty tree.
        """
        # no repository above tmp_path may be discovered
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        inside = tmp_path / "checkout"
        outside = tmp_path / "plain"
        inside.mkdir()
        outside.mkdir()
        subprocess.run(["git", "init", "-q"], cwd=str(inside), check=True)
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
             "--allow-empty", "-m", "init"],
            cwd=str(inside), check=True,
        )
        shard_files = []
        for cwd in (inside, outside):
            monkeypatch.chdir(str(cwd))
            run_sweep(tiny_grid(), "sweep-out", workers=2)
            root = os.path.join("sweep-out", "shards")
            files = {}
            for dirpath, _, filenames in os.walk(root):
                for filename in filenames:
                    path = os.path.join(dirpath, filename)
                    with open(path, "rb") as handle:
                        files[os.path.relpath(path, root)] = handle.read()
            shard_files.append(files)
        first, second = shard_files
        assert sorted(first) == sorted(second)
        assert {os.path.basename(name) for name in first} == {
            "manifest.json", "metrics.jsonl", "trace.jsonl", "result.json"}
        for name in first:
            assert first[name] == second[name], name

    def test_invalid_workers_rejected(self, tmp_path):
        with pytest.raises(SweepError):
            run_sweep(tiny_grid(), str(tmp_path / "x"), workers=0)
        with pytest.raises(SweepError):
            run_sweep(tiny_grid(), str(tmp_path / "x"), workers=2, max_retries=-1)

    def test_stats_are_emitted(self, tmp_path):
        out = str(tmp_path / "sweep")
        result = run_sweep(tiny_grid(), out, workers=2)
        stats = result.stats.to_dict()
        assert stats["done"] == 2 and stats["failed"] == 0
        assert stats["speedup"] > 0
        with open(os.path.join(out, "sweep_stats.json")) as handle:
            assert json.load(handle)["done"] == 2
        assert "shards done" in result.stats.describe()

    def test_the_rate_splitting_fork_is_not_exported(self):
        import repro.sweep

        gone = [name for name in dir(repro.sweep)
                if name.startswith("Partition") or name == "run_partitioned"]
        assert gone == [] and len(repro.sweep.__all__) == 13


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


# ----------------------------------------------------------------------
# merge + rendering
# ----------------------------------------------------------------------


class TestMergeAndReport:
    def make_results(self):
        specs = tiny_grid().expand()
        return [run_shard(spec) for spec in specs]

    def test_merge_orders_by_key_not_input_order(self):
        results = self.make_results()
        grid_desc = tiny_grid().describe()
        shuffled = list(reversed(results))
        merged = merge_shard_results(grid_desc, shuffled)
        assert [s["key"] for s in merged["shards"]] == sorted(
            r["key"] for r in results
        )
        assert merged == merge_shard_results(grid_desc, results)

    def test_merge_rejects_duplicate_keys(self):
        results = self.make_results()
        with pytest.raises(ValueError, match="duplicate"):
            merge_shard_results(tiny_grid().describe(), results + results[:1])

    def test_group_summary_aggregates_across_seeds(self):
        results = self.make_results()
        merged = merge_shard_results(tiny_grid().describe(), results)
        key = group_key(results[0]["params"])
        group = merged["summary"][key]
        assert group["seeds"] == [1, 2]
        assert 0.0 <= group["mean_fulfillment"] <= 1.0

    def test_read_aggregate_schema_guard(self, tmp_path):
        path = str(tmp_path / "aggregate.json")
        write_json(path, {"schema": 99})
        with pytest.raises(ValueError, match="schema"):
            read_aggregate(path)

    def test_dashboard_renders_aggregate(self, tmp_path):
        result = run_sweep(tiny_grid(), str(tmp_path / "out"), workers=1)
        rendered = SweepDashboard(result.aggregate).render()
        assert "sweep 'tiny'" in rendered
        assert "steady-r250-b30ms-sync-scale-reactively-s0001" in rendered
        assert "across seeds:" in rendered
        assert "fulfillment by shard:" in rendered

    def test_dashboard_handles_empty_aggregate(self):
        rendered = SweepDashboard({"grid": {}, "shards": [], "summary": {}}).render()
        assert "(no completed shards)" in rendered


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestSweepCli:
    def test_sweep_command_runs_and_writes_aggregate(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", "--seeds", "1,2", "--rates", "250", "--duration", "4",
            "--workers", "2", "--out", out,
        ])
        assert code == 0
        assert os.path.exists(os.path.join(out, AGGREGATE_FILE))
        printed = capsys.readouterr().out
        assert "shards done" in printed
        assert "aggregate:" in printed

    def test_resume_flag_skips_checkpoints(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        argv = ["sweep", "--seeds", "1,2", "--rates", "250", "--duration", "4",
                "--workers", "1", "--out", out]
        assert cli.main(argv) == 0
        aggregate = read_bytes(os.path.join(out, AGGREGATE_FILE))
        capsys.readouterr()
        assert cli.main(argv + ["--resume"]) == 0
        assert "resumed" in capsys.readouterr().out
        assert read_bytes(os.path.join(out, AGGREGATE_FILE)) == aggregate

    def test_populated_out_without_resume_fails_cleanly(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        argv = ["sweep", "--seeds", "1", "--rates", "250", "--duration", "4",
                "--workers", "1", "--out", out]
        assert cli.main(argv) == 0
        assert cli.main(argv) == 2
        assert "--resume" in capsys.readouterr().out

    def test_grid_and_quick_conflict(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--grid", "g.json", "--quick",
                      "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2

    def test_two_built_in_grids_name_both_flags(self, tmp_path, capsys):
        from repro.sweep.grid import PresetConflict

        with pytest.raises(PresetConflict, match="^pass only one of --quick, --tournament$"):
            SweepGrid.select({"quick": True, "tournament": True})
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--tournament-stateful", "--shared-cluster",
                      "--out", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.splitlines()[-1]
        assert error.endswith("pass only one of --tournament-stateful, --shared-cluster")
        assert not (tmp_path / "out").exists()

    def test_a_grid_file_axis_of_the_wrong_type_is_refused_in_one_line(self, tmp_path, capsys):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"seeds": ["a"]}))
        assert cli.main(["sweep", "--grid", str(grid_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out == "cannot build the sweep grid: seeds must be ints, got 'a'\n"

    def test_select_overrides_whole_axes_of_the_preset(self):
        grid = SweepGrid.select({"quick": True}, {"seeds": [9], "rates": None})
        assert grid.name == "quick" and grid.seeds == [9]
        assert grid.rates == SweepGrid.quick().rates
        assert SweepGrid.select({}).describe() == SweepGrid().describe()

    def test_grid_file_with_flag_overrides(self, tmp_path):
        grid_path = str(tmp_path / "grid.json")
        write_json(grid_path, tiny_grid().describe())
        out = str(tmp_path / "out")
        code = cli.main([
            "sweep", "--grid", grid_path, "--seeds", "5", "--workers", "1",
            "--out", out,
        ])
        assert code == 0
        aggregate = read_aggregate(os.path.join(out, AGGREGATE_FILE))
        assert [s["params"]["seed"] for s in aggregate["shards"]] == [5]
