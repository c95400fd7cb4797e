"""One ScenarioSpec, one build(): the spec, the registry, the CLI adapters.

Every scenario command (``run``, ``chaos``, ``run --shared-cluster``,
sweep shards) is an argument->spec adapter over
:func:`repro.workloads.scenario.build`. These tests pin the spec's
identity and JSON form, drive the CLI commands in-process, and guard the
architecture: no second place that assembles an engine.
"""

from __future__ import annotations

import argparse
import ast
import glob
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.obs.manifest import MANIFEST_FILE, METRICS_FILE, TRACE_FILE
from repro.workloads.scenario import (
    FAULT_KINDS,
    SINGLE_JOB_WORKLOADS,
    WORKLOADS,
    ScenarioSpec,
    build,
    summarize,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUNDLE = (MANIFEST_FILE, METRICS_FILE, TRACE_FILE)


def read_bundle(directory):
    out = {}
    for name in BUNDLE:
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


#: (field, value) pairs SweepGrid rejects for a grid and a spec must too
BAD_NUMBERS = [
    ("duration", float("nan")), ("duration", float("inf")), ("duration", -3.0),
    ("rate", -5.0), ("bound", 0.0), ("bound", float("nan")),
]


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_unknown_workload_raises_naming_the_registry(self):
        # at the parent commit this silently built the steady pipeline
        # and checkpointed it under the key "bogus-r400-..."
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec(seed=1, rate=400, bound=0.03, workload="bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        for name in WORKLOADS:
            assert name in message

    def test_from_dict_validates_spawn_input_too(self):
        payload = ScenarioSpec(seed=1, rate=400, bound=0.03).to_dict()
        payload["workload"] = "bogus"
        with pytest.raises(ValueError, match="unknown workload"):
            ScenarioSpec.from_dict(payload)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="no knob worker_pool"):
            ScenarioSpec(seed=1, rate=400, bound=0.03, knobs={"worker_pool": 3})

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            ScenarioSpec(seed=1, rate=400, bound=0.03,
                         faults=[{"kind": "Meteor", "at": 1.0}])

    @pytest.mark.parametrize("field, value", BAD_NUMBERS)
    def test_numbers_no_scenario_can_have_are_rejected(self, field, value):
        # at the parent commit only SweepGrid checked these; a spec built by
        # run/chaos or by hand ran forever (nan, inf) or for minus 3 seconds
        axes = {"seed": 1, "rate": 400.0, "bound": 0.03, "duration": 60.0,
                field: value}
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            ScenarioSpec(**axes)

    def test_fault_on_a_vertex_the_workload_lacks_fails_at_build(self):
        crash = FAULT_KINDS["TaskCrash"](at=1.0, vertex="worker")
        spec = ScenarioSpec(seed=1, rate=240, bound=0.03, workload="twitter",
                            faults=(crash,))
        with pytest.raises(ValueError, match="unknown vertex worker"):
            build(spec)

    @pytest.mark.parametrize("spec, key", [
        # the strings shard_key() produced at the parent commit
        (ScenarioSpec(7, 250.0, 0.030),
         "steady-r250-b30ms-sync-scale-reactively-s0007"),
        (ScenarioSpec(12, 400.0, 0.03, "spike", True, policy="drs"),
         "spike-r400-b30ms-act-drs-s0012"),
        (ScenarioSpec(3, 240.0, 0.0305, "twitter",
                      policy="drs:target_fraction=0.9"),
         "twitter-r240-b30.5ms-sync-drs+6e247c35-s0003"),
        (ScenarioSpec(1, 1400.0, 0.06, "multi_job",
                      policy="daedalus:target_utilization=0.6"),
         "multi_job-r1400-b60ms-sync-daedalus+1d333fb9-s0001"),
        (ScenarioSpec(12345, 1e6, 0.5, "stateful", True,
                      policy="cpu-threshold:high=0.85,low=0.3"),
         "stateful-r1e+06-b500ms-act-cpu-threshold+71e8d43c-s12345"),
    ])
    def test_key_is_pinned(self, spec, key):
        assert spec.key == key

    def test_grid_shard_params_are_the_seven_axes(self):
        spec = ScenarioSpec(seed=3, rate=250.0, bound=0.030, duration=4.0)
        assert list(spec.params()) == [
            "seed", "rate", "bound", "workload", "actuation", "duration", "policy",
        ]
        assert spec.to_dict() == spec.params()

    def test_refinements_enter_params_only_when_set(self):
        plain = ScenarioSpec(seed=3, rate=250.0, bound=0.030)
        refined = ScenarioSpec(seed=3, rate=250.0, bound=0.030,
                               knobs={"stateful": True})
        assert plain.key == refined.key
        assert plain.params() != refined.params()

    def test_registry_is_the_only_workload_list(self):
        from repro.sweep import grid

        assert grid.WORKLOADS is WORKLOADS
        assert SINGLE_JOB_WORKLOADS == tuple(w for w in WORKLOADS if w != "multi_job")


fault_floats = st.floats(min_value=0.0, max_value=1e4,
                         allow_nan=False, allow_infinity=False)
_FIELD_VALUES = {
    "at": fault_floats,
    "duration": fault_floats,
    "factor": fault_floats,
    "restart_delay": st.none() | fault_floats,
    "vertex": st.sampled_from(["worker", "source"]),
    "subtask": st.none() | st.integers(0, 31),
    "worker_index": st.none() | st.integers(0, 31),
}


def fault_events():
    from dataclasses import fields

    return st.one_of(*[
        st.builds(cls, **{f.name: _FIELD_VALUES[f.name] for f in fields(cls)})
        for cls in FAULT_KINDS.values()
    ])


class TestJsonRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        rate=st.floats(1.0, 1e5, allow_nan=False),
        workload=st.sampled_from(["steady", "spike", "dropout", "stateful"]),
        actuation=st.booleans(),
        policy=st.sampled_from(["scale-reactively", "drs:target_fraction=0.9"]),
        name=st.none() | st.just("chaos"),
        faults=st.lists(fault_events(), max_size=6),
        fault_seed=st.none() | st.integers(0, 99),
        knobs=st.fixed_dictionaries({}, optional={
            "constraint_name": st.none() | st.just("e2e"),
            "stateful": st.booleans(),
            "checkpoint_interval": st.floats(1.0, 60.0),
        }),
    )
    def test_spec_survives_json(self, faults, **fields):
        spec = ScenarioSpec(bound=0.03, faults=tuple(faults), **fields)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(wire) == spec

    def test_every_fault_kind_is_covered(self):
        from repro.simulation import faults as f

        events = (
            f.TaskCrash(at=1.0, vertex="worker", subtask=2, restart_delay=None),
            f.WorkerLoss(at=2.0, worker_index=1),
            f.MeasurementDropout(at=3.0, duration=4.0),
            f.ServiceSpike(at=4.0, vertex="worker", factor=2.5),
            f.ActuationFailure(at=5.0, duration=6.0),
            f.ActuationDelay(at=6.0, duration=7.0, vertex="worker", factor=4.0),
            f.MigrationFailure(at=7.0, duration=8.0, vertex="worker"),
        )
        assert {type(event) for event in events} == set(FAULT_KINDS.values())
        spec = ScenarioSpec(seed=1, rate=400, bound=0.03, faults=events)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert [event["kind"] for event in wire["faults"]] == list(FAULT_KINDS)
        assert ScenarioSpec.from_dict(wire).faults == events


# ----------------------------------------------------------------------
# the CLI adapters, in-process
# ----------------------------------------------------------------------

CHAOS_ACTUATION = ["chaos", "--duration", "30", "--actuation", "--pin-wall-time"]
CHAOS_STATEFUL = ["chaos", "--duration", "30", "--stateful",
                  "--migration-fail-at", "8", "--crash-at", "15",
                  "--checkpoint-interval", "5", "--pin-wall-time"]


class TestChaosCommand:
    @pytest.mark.parametrize("argv", [CHAOS_ACTUATION, CHAOS_STATEFUL],
                             ids=["actuation", "stateful-migration-fail"])
    def test_same_seed_exports_are_byte_identical(self, argv, tmp_path, capsys):
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(argv + ["--obs-dir", first]) == 0
        report = capsys.readouterr().out
        assert cli.main(argv + ["--obs-dir", second]) == 0
        assert read_bundle(first) == read_bundle(second)
        assert "fault timeline:" in report
        assert "actuation:" in report

    @pytest.mark.parametrize("argv", [CHAOS_ACTUATION, CHAOS_STATEFUL],
                             ids=["actuation", "stateful-migration-fail"])
    def test_cli_export_equals_build_of_the_adapters_spec(self, argv, tmp_path, capsys):
        via_cli, via_build = str(tmp_path / "cli"), str(tmp_path / "build")
        assert cli.main(argv + ["--obs-dir", via_cli]) == 0
        capsys.readouterr()
        spec = cli.chaos_spec(cli.build_parser().parse_args(argv))
        engine, _jobs, _recorder = build(spec, export_dir=via_build)
        engine.run(spec.duration)
        engine.export_run()
        assert read_bundle(via_cli) == read_bundle(via_build)

    def test_stateful_flags_map_onto_the_spec(self):
        spec = cli.chaos_spec(cli.build_parser().parse_args(CHAOS_STATEFUL))
        assert spec.workload == "steady" and spec.name == "chaos"
        assert spec.actuation  # stateful implies the reconciler
        assert spec.knobs == {"constraint_name": None, "stateful": True,
                              "checkpoint_interval": 5.0}
        assert [type(event).__name__ for event in spec.faults] == [
            "TaskCrash", "MeasurementDropout", "MigrationFailure",
        ]
        assert spec.fault_seed == 0


class TestRunCommand:
    def test_default_run_is_the_steady_obs_run(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        assert cli.main(["run", "--duration", "15", "--obs-dir", out]) == 0
        assert "exported:" in capsys.readouterr().out
        with open(os.path.join(out, MANIFEST_FILE)) as handle:
            manifest = json.load(handle)
        assert manifest["job"] == "obs-run"
        assert manifest["fault_plan"] is None
        assert manifest["constraints"][0]["name"] == "e2e"

    def test_scenario_flag_is_honoured_without_partitions(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        argv = ["run", "--duration", "20", "--scenario", "spike", "--obs-dir", out]
        assert cli.run_spec(cli.build_parser().parse_args(argv)).workload == "spike"
        assert cli.main(argv) == 0
        capsys.readouterr()
        with open(os.path.join(out, MANIFEST_FILE)) as handle:
            manifest = json.load(handle)
        assert [e["kind"] for e in manifest["fault_plan"]["events"]] == ["ServiceSpike"]

    def test_trace_check_accepts_a_run_bundle_and_nothing_else(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        assert cli.main(["run", "--duration", "15", "--obs-dir", out]) == 0
        assert cli.main(["trace", "--check", "--obs-dir", out]) == 0
        assert "trace check OK" in capsys.readouterr().out
        # the merged manifest the removed `run --partitions` wrote
        with open(os.path.join(out, MANIFEST_FILE), "w") as handle:
            json.dump({"partition_schema": 1, "plan": {}, "slices": []}, handle)
        assert cli.main(["trace", "--check", "--obs-dir", out]) == 1
        report = capsys.readouterr().out.splitlines()
        assert report[0] == "trace check FAILED (1 errors):"
        assert "unsupported manifest schema None" in report[1] and len(report) == 2

    def test_trace_show_refuses_another_schema_in_one_line(self, tmp_path, capsys):
        out = str(tmp_path / "obs")
        assert cli.main(["run", "--duration", "15", "--obs-dir", out]) == 0
        assert cli.main(["trace", "show", out]) == 0
        capsys.readouterr()
        path = os.path.join(out, TRACE_FILE)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(dict(record, schema=9)) + "\n")
        assert cli.main(["trace", "show", out]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.endswith("unsupported trace schema 9 (expected 5)")

    @pytest.mark.parametrize("command", ["run", "chaos"])
    @pytest.mark.parametrize("field, value", BAD_NUMBERS)
    def test_bad_numbers_are_a_usage_error_that_exports_nothing(
        self, command, field, value, tmp_path, capsys
    ):
        out = tmp_path / "obs"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, f"--{field}", repr(value), "--obs-dir", str(out)])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"error: {field} must be positive and finite" in error
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--partitions", "2"), ("--slices", "8")])
    def test_partition_flags_are_gone(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_shared_cluster_reports_denials_and_preemptions(self, capsys):
        assert cli.main(["run", "--shared-cluster"]) == 0
        report = capsys.readouterr().out
        match = re.search(r"(\d+) admission denials, (\d+) preempted tasks", report)
        assert match, report
        assert int(match.group(1)) >= 1 and int(match.group(2)) >= 1
        assert "fairness (Jain, per-job fulfillment):" in report
        assert report.startswith("shared cluster: 3 workers x 4 slots, 240s virtual, seed=11\n")

    @pytest.mark.parametrize("flag, value, reason", [
        ("--workers", "0", "EngineConfig.worker_pool must be finite and >= 1 (got 0)"),
        ("--slots-per-worker", "0",
         "EngineConfig.slots_per_worker must be finite and >= 1 (got 0)"),
        # the two jobs deploy 8 tasks; one worker has 4 slots
        ("--workers", "1", "worker pool exhausted (1 workers, 4 slots)"),
    ], ids=["workers-0", "slots-per-worker-0", "workers-1"])
    def test_a_pool_the_jobs_cannot_deploy_on_is_a_usage_error(
        self, flag, value, reason, capsys
    ):
        # at the parent commit each of these ended in a traceback (exit 1)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["run", "--shared-cluster", flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err.strip().splitlines()[-1]
        assert error.endswith(f"error: cannot deploy the shared cluster: {reason}")


class TestSummarize:
    def test_single_and_multi_job_share_one_envelope(self):
        single = ScenarioSpec(seed=3, rate=250.0, bound=0.030, duration=4.0)
        multi = ScenarioSpec(seed=1, rate=1400.0, bound=0.06,
                             workload="multi_job", duration=10.0)
        results = []
        for spec in (single, multi):
            engine, jobs, recorder = build(spec)
            engine.run(spec.duration)
            results.append(summarize(spec, engine, jobs, recorder))
        extras = {"jobs", "fairness", "cluster"}
        assert set(results[1]) - set(results[0]) == extras
        assert set(results[0]) <= set(results[1])
        assert "+" in results[1]["graph_hash"] and "+" not in results[0]["graph_hash"]


# ----------------------------------------------------------------------
# the CLI surface is unchanged
# ----------------------------------------------------------------------

#: option strings (and positionals) per subcommand: the surface as it
#: stood before the scenario refactor, minus the three partition flags
#: ``run`` lost with ``sweep/partition.py``, the ``runs`` command,
#: ``compare --index`` (the run-history index) and ``run --admission`` /
#: ``--placement`` (the shared cluster has one arbitration and one
#: placement rule)
PARENT_OPTIONS = {
    "": ["--help", "-h"],
    "bench": ["--check", "--help", "--no-macro", "--out", "--profile", "--quick", "-h"],
    "chaos": ["--actuation", "--actuation-fail-at", "--actuation-fail-duration",
              "--bound", "--checkpoint-interval", "--crash-at", "--dropout-at",
              "--dropout-duration", "--duration", "--fault-seed", "--help",
              "--migration-fail-at", "--migration-fail-duration", "--obs-dir",
              "--pin-wall-time", "--policy", "--rate", "--restart-delay", "--seed",
              "--spike-at", "--spike-duration", "--spike-factor", "--stateful",
              "--worker-loss-at", "-h"],
    "compare": ["--baseline", "--help", "--html", "--json",
                "--scoreboard", "--suggest", "--tolerance", "--write-baseline",
                "-h", "runs"],
    "experiment": ["--csv", "--help", "--quick", "-h", "name"],
    "info": ["--help", "-h"],
    "run": ["--bound", "--duration", "--help", "--obs-dir", "--policy", "--rate",
            "--scenario", "--seed", "--shared-cluster", "--slots-per-worker",
            "--workers", "-h"],
    "sweep": ["--actuation", "--bounds", "--duration", "--grid", "--help", "--out",
              "--policy", "--quick", "--rates", "--resume", "--retries", "--seeds",
              "--shared-cluster", "--tournament", "--tournament-stateful",
              "--workers", "--workloads", "-h"],
    "trace": ["--check", "--help", "--obs-dir", "-h"],
    "trace generate": ["--amplitude", "--base-rate", "--days", "--help", "--out",
                       "--seed", "-h"],
    "trace info": ["--help", "-h", "path"],
    "trace show": ["--help", "--last", "-h", "dir"],
}


def _options(parser, prefix, out):
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _options(sub, f"{prefix} {name}".strip(), out)
        else:
            names.extend(action.option_strings or [action.dest])
    out[prefix] = sorted(names)
    return out


class TestCliSurface:
    def test_option_strings_match_the_parent_commit(self):
        assert _options(cli.build_parser(), "", {}) == PARENT_OPTIONS

    def test_scenario_choices_and_workloads_help_come_from_the_registry(self):
        parser = cli.build_parser()
        subcommands = next(a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        scenario = next(a for a in subcommands["run"]._actions if a.dest == "scenario")
        assert tuple(scenario.choices) == SINGLE_JOB_WORKLOADS
        workloads = next(a for a in subcommands["sweep"]._actions
                         if a.dest == "workloads")
        for name in WORKLOADS:
            assert name in workloads.help


# ----------------------------------------------------------------------
# architecture guard
# ----------------------------------------------------------------------


def _sources(*patterns):
    paths = []
    for pattern in patterns:
        paths.extend(glob.glob(os.path.join(ROOT, "src", "repro", pattern)))
    assert paths
    return sorted(paths)


def _containing(paths, needle):
    hits = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            if needle in handle.read():
                hits.append(os.path.relpath(path, os.path.join(ROOT, "src", "repro")))
    return hits


def _calling(name):
    """Files of ``src/repro`` outside ``engine/`` whose *code* calls ``name``.

    Parsed, not grepped: docstrings and doctests show the public API and
    may construct whatever they like.
    """
    root = os.path.join(ROOT, "src", "repro")
    hits = []
    for path in sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True)):
        relative = os.path.relpath(path, root)
        if relative.startswith("engine" + os.sep):
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name == getattr(
                node.func, "id", getattr(node.func, "attr", None)
            ):
                hits.append(relative)
                break
    return hits


class TestOneBuilder:
    def test_only_recording_py_constructs_an_engine(self):
        """Scenario builds, figure harnesses and the macro bench all deploy()."""
        deploy_home = [os.path.join("experiments", "recording.py")]
        assert _calling("StreamProcessingEngine") == deploy_home
        assert _calling("SeriesRecorder") == deploy_home

    def test_only_the_point_runner_and_fig8_build_an_elastic_config(self):
        """Fig. 6, the policy table, the sensitivity grid and the ablations run_point()."""
        experiments = [
            path for path in _calling("nephele_adaptive")
            if path.startswith("experiments" + os.sep)
        ]
        assert experiments == [
            os.path.join("experiments", "fig8_twitter.py"),
            os.path.join("experiments", "step_load.py"),
        ]

    def test_cli_and_sweep_assemble_no_pipelines(self):
        assert _containing(_sources("cli.py", "sweep/*.py"), "PipelineBuilder(") == []


#: what StreamProcessingEngine used to answer on behalf of its first job
REMOVED_ENGINE_NAMES = (
    "runtime", "scheduler", "scaler", "fault_injector", "reconciler",
    "state_manager", "constraints", "trackers", "last_summary",
    "_managers", "parallelism", "drain_sink_samples",
    "check_assumptions",
)


class TestJobIsTheHandle:
    """Per-job state is reached through ``DeployedJob`` and nowhere else."""

    def test_engine_exposes_no_per_job_name(self):
        engine, (job,), _ = build(ScenarioSpec(seed=1, rate=100.0, bound=0.03))
        for name in REMOVED_ENGINE_NAMES:
            assert not hasattr(engine, name), name
            assert hasattr(job, name), name

    def test_block_drawn_service_times_have_no_switch(self):
        import dataclasses
        import inspect

        from repro.engine.engine import EngineConfig
        from repro.engine.scheduler import Scheduler
        from repro.engine.task import RuntimeTask

        fields = [f.name for f in dataclasses.fields(EngineConfig)]
        assert "vectorized_sampling" not in fields
        assert len(fields) == 20
        for cls in (Scheduler, RuntimeTask):
            assert "vectorized" not in inspect.signature(cls.__init__).parameters
            assert not hasattr(cls, "vectorized")
