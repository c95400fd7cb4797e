"""End-to-end tests of the figure harnesses on micro parameterizations.

These run each harness at a tiny scale (seconds of virtual time) to
exercise the full code path — engine construction, recording, derived
statistics, report rendering and CSV export — without asserting the
paper's shapes (the benchmark suite does that at a meaningful scale).
"""

import argparse
import importlib
import os
from dataclasses import replace

import pytest

from repro import cli
from repro.core.policy import PolicySpec
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.experiments.compare_policies import CompareParams, run_policy
from repro.experiments.fig3_motivation import (
    CONFIG_NAMES,
    Fig3Params,
    _engine_config,
    run_config,
)
from repro.experiments.fig6_primetester import Fig6Params, run_baseline, run_elastic
from repro.experiments.fig8_twitter import Fig8Params
from repro.experiments.fig8_twitter import run as run_fig8
from repro.experiments.recording import SeriesRecorder
from repro.experiments.report import FIGURES
from repro.experiments.sensitivity import SensitivityParams, run_point
from repro.workloads.primetester import (
    SCALED_CLUSTER,
    PrimeTesterParams,
    build_primetester_job,
    primetester_constraint,
    run_primetester,
)
from repro.workloads.twitter_job import TwitterSentimentParams

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def micro_primetester(**overrides):
    base = dict(
        n_sources=2,
        n_testers=2,
        n_sinks=1,
        tester_min=1,
        tester_max=8,
        warmup_rate=20.0,
        peak_rate=80.0,
        increment_steps=2,
        step_duration=4.0,
        plateau_steps=1,
        tester_service_mean=0.002,
        tester_service_cv=0.5,
    )
    base.update(overrides)
    return PrimeTesterParams(**base)


@pytest.fixture(scope="module")
def fig3_config_result():
    params = Fig3Params(workload=micro_primetester(tester_min=2, tester_max=2),
                        recording_interval=2.0)
    return run_config("Nephele-20ms", params), params


class TestFig3Harness:
    def test_rows_recorded(self, fig3_config_result):
        result, params = fig3_config_result
        assert len(result.rows) >= 5

    def test_statistics_derived(self, fig3_config_result):
        result, _ = fig3_config_result
        assert result.warmup_latency is not None
        assert result.plateau_effective_rate > 0

    def test_all_config_names_buildable(self):
        params = Fig3Params()
        for name in CONFIG_NAMES:
            assert _engine_config(name, params) is not None
        with pytest.raises(ValueError):
            _engine_config("bogus", params)

    def test_report_and_csv(self, tmp_path, fig3_config_result):
        from repro.experiments.fig3_motivation import Fig3Result

        result, params = fig3_config_result
        figure = Fig3Result(params)
        figure.configs["Nephele-20ms"] = result
        text = figure.report()
        assert "Nephele-20ms" in text
        path = figure.series_csv(os.path.join(tmp_path, "fig3.csv"))
        assert os.path.getsize(path) > 0


@pytest.fixture(scope="module")
def fig6_micro_params():
    return Fig6Params(workload=micro_primetester(), baseline_testers=2,
                      recording_interval=2.0, sweep_bounds=(0.050,))


class TestFig6Harness:
    def test_elastic_run(self, fig6_micro_params):
        result = run_elastic(fig6_micro_params)
        assert result.fulfillment is not None
        assert result.task_seconds > 0
        assert result.pt_task_seconds > 0
        assert result.pt_task_seconds < result.task_seconds

    def test_baseline_run(self, fig6_micro_params):
        result = run_baseline(fig6_micro_params)
        assert result.fulfillment is None  # no constraint submitted
        assert result.min_parallelism == result.max_parallelism == 2

    def test_report_renders(self, fig6_micro_params):
        from repro.experiments.fig6_primetester import Fig6Result

        figure = Fig6Result(fig6_micro_params)
        figure.elastic = run_elastic(fig6_micro_params)
        figure.baseline = run_baseline(fig6_micro_params)
        text = figure.report()
        assert "elastic-20ms" in text
        assert "baseline-16KiB" in text
        assert "series" in text  # sparkline panel

    def test_csv_export(self, tmp_path, fig6_micro_params):
        from repro.experiments.fig6_primetester import Fig6Result

        figure = Fig6Result(fig6_micro_params)
        figure.elastic = run_elastic(fig6_micro_params)
        path = figure.series_csv(os.path.join(tmp_path, "fig6.csv"))
        with open(path) as f:
            assert "pt_parallelism" in f.readline()


@pytest.fixture(scope="module")
def fig8_micro_result():
    workload = TwitterSentimentParams(
        base_rate=40.0,
        period=40.0,
        bursts=((50.0, 10.0, 2.0),),
        topic_bursts=((50.0, 60.0, 0, 0.8),),
        ht_max=10,
        filter_max=10,
        sentiment_max=15,
    )
    params = Fig8Params(workload=workload, duration=80.0, recording_interval=4.0)
    return run_fig8(params)


class TestFig8Harness:
    def test_fulfillment_tracked_for_both_constraints(self, fig8_micro_result):
        assert len(fig8_micro_result.fulfillment) == 2
        assert all(0.0 <= r <= 1.0 for r in fig8_micro_result.fulfillment.values())

    def test_parallelism_ranges_present(self, fig8_micro_result):
        assert set(fig8_micro_result.parallelism_ranges) == {
            "HotTopics", "Filter", "Sentiment",
        }

    def test_burst_scaleup_computed(self, fig8_micro_result):
        assert fig8_micro_result.sentiment_burst_scaleup is not None

    def test_report_renders(self, fig8_micro_result):
        text = fig8_micro_result.report()
        assert "constraint-1(hot-topics)" in text
        assert "tweets/s" in text

    def test_csv_export(self, tmp_path, fig8_micro_result):
        path = fig8_micro_result.series_csv(os.path.join(tmp_path, "fig8.csv"))
        with open(path) as f:
            header = f.readline()
        assert "p_sentiment" in header
        assert "cpu_utilization" in header

    def test_cpu_utilization_sane(self, fig8_micro_result):
        assert 0.0 < fig8_micro_result.mean_cpu_utilization < 1.0


# ----------------------------------------------------------------------
# one deploy path, one PrimeTester runner, one figure table
# ----------------------------------------------------------------------


def _by_hand(workload, config, bound=None, policy=None, interval=None):
    """The run as every harness used to spell it out (the reference)."""
    graph, profile = build_primetester_job(workload)
    constraints = [primetester_constraint(graph, bound)] if bound is not None else []
    engine = StreamProcessingEngine(config)
    job = engine.submit(graph, constraints, policy=policy)
    recorder = None
    if interval is not None:
        recorder = SeriesRecorder(
            engine, interval=interval, source_vertex="Source", source_profile=profile
        )
        recorder.add_sink_feed("e2e", "Sink")
    engine.run(profile.end_time + workload.step_duration)
    engine.stop()
    return job, recorder


def _outcome(job, recorder):
    tracker = job.trackers[0] if job.trackers else None
    return {
        "fulfillment": tracker.fulfillment_ratio if tracker else None,
        "task_seconds": job.engine.resources.task_seconds(),
        "scaling": [
            (event.time, event.applied) for event in (job.scaler.events if job.scaler else [])
        ],
        "parallelism": job.parallelism("PrimeTester"),
        "fired": job.engine.sim.fired_events,
        "rows": None if recorder is None else [
            (r.time, r.attempted_rate, r.effective_rate, r.parallelism,
             r.latency_mean, r.latency_p95, r.task_seconds, r.cpu_utilization)
            for r in recorder.rows
        ],
    }


def _elastic(seed=11, **overrides):
    return EngineConfig.nephele_adaptive(
        elastic=True, seed=seed, **SCALED_CLUSTER, **overrides
    )


class TestSharedRunner:
    """run_primetester against each call shape it replaced, bit for bit."""

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    def test_static_presets(self, name):
        params = Fig3Params(workload=micro_primetester(tester_min=2, tester_max=2),
                            recording_interval=2.0)
        bound = params.constraint_bound if name == "Nephele-20ms" else None
        reference = _outcome(*_by_hand(
            params.workload, _engine_config(name, params), bound, interval=2.0))
        assert _outcome(*run_primetester(
            params.workload, _engine_config(name, params), bound,
            recording_interval=2.0)) == reference
        assert [r.time for r in run_config(name, params).rows] == [
            row[0] for row in reference["rows"]
        ]

    def test_storm_ships_at_a_tenth_more_per_batch(self):
        config = _engine_config("Storm", Fig3Params())
        assert config.per_batch_overhead == SCALED_CLUSTER["per_batch_overhead"] * 1.1
        assert config.queue_capacity == SCALED_CLUSTER["queue_capacity"]

    def test_elastic_with_bound(self, fig6_micro_params):
        reference = _outcome(*_by_hand(
            fig6_micro_params.workload, _elastic(), 0.050, interval=2.0))
        assert _outcome(*run_primetester(
            fig6_micro_params.workload, _elastic(), 0.050,
            recording_interval=2.0)) == reference
        result = run_elastic(fig6_micro_params, 0.050)
        assert result.task_seconds == reference["task_seconds"]
        assert result.fulfillment == reference["fulfillment"]

    def test_unconstrained_fixed_buffer_baseline(self, fig6_micro_params):
        workload = micro_primetester(n_testers=2, tester_min=2, tester_max=2)
        config = EngineConfig.nephele_fixed_buffer(seed=11, **SCALED_CLUSTER)
        reference = _outcome(*_by_hand(workload, config, interval=2.0))
        assert reference["fulfillment"] is None
        assert _outcome(*run_primetester(workload, config, recording_interval=2.0)) == reference
        assert run_baseline(fig6_micro_params).task_seconds == reference["task_seconds"]

    def test_config_override_without_recorder(self):
        params = SensitivityParams(workload=micro_primetester())
        reference = _outcome(*_by_hand(params.workload, _elastic(rho_max=0.8), 0.020))
        job, recorder = run_primetester(params.workload, _elastic(rho_max=0.8), 0.020)
        assert recorder is None
        assert _outcome(job, recorder) == reference
        point = run_point(params, rho_max=0.8)
        assert (point.fulfillment, point.task_seconds, point.scaling_events) == (
            reference["fulfillment"], reference["task_seconds"], len(reference["scaling"])
        )

    def test_policy_spec(self):
        params = CompareParams(workload=micro_primetester())
        spec = PolicySpec("cpu-threshold", {"high": 0.8, "low": 0.3, "target": 0.6})
        reference = _outcome(*_by_hand(params.workload, _elastic(), 0.020, policy=spec))
        assert _outcome(*run_primetester(
            params.workload, _elastic(), 0.020, policy=spec)) == reference
        outcome = run_policy(params, "cpu-threshold")
        assert outcome.task_seconds == reference["task_seconds"]
        assert outcome.scaling_events == len(reference["scaling"])
        assert outcome.max_parallelism >= reference["parallelism"]


class TestObserverEffect:
    def test_a_recorder_changes_nothing_but_the_last_digit_of_task_seconds(self):
        """A recorder reads task-seconds every interval and moves nothing.

        ``ResourceManager.task_seconds()`` is a pure read (the committed
        integral plus the tail since the last slot change), so the
        recorder's per-interval reads cannot re-associate the float sum:
        everything the simulation decides and the final task-seconds are
        bit-equal with and without a recorder. The peak rate makes the
        scaler act, so slots change hands between the recorder's reads.
        """
        workload = micro_primetester(peak_rate=400.0)
        bare = _outcome(*run_primetester(workload, _elastic(), 0.020))
        seen = _outcome(*run_primetester(workload, _elastic(), 0.020, recording_interval=2.0))
        for key in ("fulfillment", "scaling", "parallelism", "task_seconds"):
            assert seen[key] == bare[key], key
        assert seen["fired"] > bare["fired"]  # the recorder's own ticks


def _experiment_choices():
    (subparsers,) = [
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (name,) = [a for a in subparsers.choices["experiment"]._actions if a.dest == "name"]
    return name.choices


class TestFigureTable:
    def test_cli_choices_and_info_come_from_the_table(self, capsys):
        assert tuple(_experiment_choices()) == tuple(FIGURES) + ("all",)
        assert cli.main(["info"]) == 0
        assert "experiments: " + ", ".join(FIGURES) + "\n" in capsys.readouterr().out

    @pytest.mark.parametrize("name", FIGURES)
    def test_every_row_names_a_harness_and_a_committed_artefact(self, name):
        figure = FIGURES[name]
        module = importlib.import_module(figure.module)
        assert callable(module.run) and callable(module.main)
        if figure.params is not None:
            assert callable(getattr(module, figure.params)().quick)
        assert os.path.exists(os.path.join(ROOT, "results", figure.artefact))

    @pytest.mark.parametrize("name", FIGURES)
    @pytest.mark.parametrize("argv", [["--csv"], ["--quik"], ["--quick", "stray"]])
    def test_bad_arguments_exit_2_before_anything_runs(self, name, argv, monkeypatch, capsys):
        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was constructed before argument parsing")

        module = importlib.import_module(FIGURES[name].module)
        monkeypatch.setattr(StreamProcessingEngine, "__init__", no_engine)
        monkeypatch.setattr(module, "run", no_engine)
        with pytest.raises(SystemExit) as exit_info:
            module.main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    def test_only_fig6_takes_no_sweep(self, capsys):
        from repro.experiments import fig3_motivation

        with pytest.raises(SystemExit):
            fig3_motivation.main(["--no-sweep"])
        assert "--no-sweep" in capsys.readouterr().err

    def test_csv_dir_regenerates_the_committed_artefact(self, tmp_path, capsys):
        """``experiment --csv DIR`` used to write ``fig5_series.csv``, a stray."""
        assert cli.main(["experiment", "fig5", "--csv", str(tmp_path)]) == 0
        written = os.path.join(str(tmp_path), "fig5_surface.csv")
        assert os.listdir(str(tmp_path)) == ["fig5_surface.csv"]
        with open(written, "rb") as new, open(
            os.path.join(ROOT, "results", "fig5_surface.csv"), "rb"
        ) as committed:
            assert new.read() == committed.read()
        assert capsys.readouterr().out.endswith(f"surface written to {written}\n")

    def test_quick_says_which_figures_have_one_scale(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["experiment", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "fig5 and validation have one scale" in help_text


class TestResultsOracle:
    """The cheap committed artefacts, regenerated in tier 1."""

    @pytest.mark.parametrize("name", ["fig5", "validation"])
    def test_report_is_byte_identical_to_results(self, name, capsys):
        assert cli.main(["experiment", name]) == 0
        with open(os.path.join(ROOT, "results", f"{name}_report.txt"), encoding="utf-8") as handle:
            committed = [line for line in handle if " written to " not in line]
        assert capsys.readouterr().out == "".join(committed)
