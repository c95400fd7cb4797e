"""Evaluation platform: tolerances, baselines, comparisons, CLI.

Covers the tolerance spec format (parsing, validation, inclusive
checks), metric extraction from sweep aggregates, the baseline file
round-trip, pass/fail edge cases (exactly-at-bound, missing metric,
NaN), suggest-mode determinism across seeds, and the ``repro compare``
CLI round-trip on a tiny sweep fixture. The golden-comparison
regression test pins the committed Twitter baseline: compared against
itself it must stay fully green with byte-identical comparison JSON.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro import cli
from repro.evaluate import (
    Baseline,
    Candidate,
    ToleranceSpec,
    compare_runs,
    extract_metrics,
    limit_value,
    metric_direction,
    render_comparison,
    render_comparison_html,
    suggest_from_runs,
    suggest_tolerance,
    within_tolerance,
    write_comparison_html,
)
from repro.evaluate.metrics import MetricSeries, metrics_from_stats
from repro.experiments.ascii import spread_bar
from repro.experiments.report import write_json
from repro.sweep import SweepGrid, run_sweep

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TWITTER_BASELINE = os.path.join(REPO_ROOT, "baselines", "twitter.json")


def make_aggregate(latencies=(0.010, 0.012, 0.011), fulfillment=1.0, name="tiny"):
    """A synthetic merged sweep aggregate with one shard per latency."""
    shards = []
    for i, latency in enumerate(latencies):
        shards.append({
            "key": f"tiny-s{i:04d}",
            "params": {"seed": i},
            "final_parallelism": {"worker": 4},
            "constraints": [{
                "name": "e2e", "bound": 0.03,
                "fulfillment_ratio": fulfillment,
                "violations": 0, "intervals": 8,
            }],
            "series": {
                "feeds": {"e2e": {"mean_latency": latency,
                                  "max_p95_latency": latency * 2}},
                "task_seconds": 100.0 + i,
                "mean_cpu_utilization": 0.5,
            },
        })
    return {"grid": {"name": name, "shards": len(shards)}, "shards": shards}


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestToleranceSpec:
    def test_parses_default_and_per_metric_entries(self):
        spec = ToleranceSpec.from_dict({
            "schema": 1,
            "mode": "relative",
            "default": {"avg": 0.05, "p95": 0.1},
            "metrics": {"latency/e2e/mean": {"mode": "absolute", "avg": 0.002}},
        })
        assert spec.for_metric("anything")["mode"] == "relative"
        assert spec.for_metric("latency/e2e/mean")["mode"] == "absolute"
        assert spec.bounded_stats("anything") == ("avg", "p95")
        assert spec.bounded_stats("latency/e2e/mean") == ("avg",)

    def test_describe_round_trips(self):
        data = {
            "schema": 1, "mode": "absolute",
            "default": {"avg": 0.01, "max": "inf"},
            "metrics": {"m": {"mode": "relative", "p95": 0.5}},
        }
        spec = ToleranceSpec.from_dict(data)
        again = ToleranceSpec.from_dict(spec.describe())
        assert again.describe() == spec.describe()
        assert math.isinf(spec.for_metric("x")["bounds"]["max"])

    @pytest.mark.parametrize("bad", [
        {"schema": 2},
        {"typo": 1},
        {"mode": "sideways"},
        {"default": {"count": 0.1}},
        {"default": {"avg": -0.1}},
        {"default": {"avg": float("nan")}},
        {"default": {"avg": "huge"}},
        {"default": {"avg": True}},
        {"metrics": {"m": {"weird": 0.1}}},
        {"metrics": {"m": "not-an-object"}},
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            ToleranceSpec.from_dict(bad)

    def test_exactly_at_bound_passes_inclusively(self):
        # lower-is-better, relative: limit = 100 * 1.05
        assert within_tolerance(105.0, 100.0, 0.05, "relative", "lower")
        assert not within_tolerance(105.0000001, 100.0, 0.05, "relative", "lower")
        # higher-is-better, absolute: limit = 1.0 - 0.2
        assert within_tolerance(0.8, 1.0, 0.2, "absolute", "higher")
        assert not within_tolerance(0.79999, 1.0, 0.2, "absolute", "higher")

    def test_limit_moves_in_the_bad_direction_only(self):
        assert limit_value(10.0, 0.1, "relative", "lower") == pytest.approx(11.0)
        assert limit_value(10.0, 0.1, "relative", "higher") == pytest.approx(9.0)
        assert limit_value(-10.0, 0.1, "relative", "lower") == pytest.approx(-9.0)
        assert limit_value(10.0, 0.5, "absolute", "lower") == pytest.approx(10.5)
        with pytest.raises(ValueError):
            limit_value(1.0, 0.1, "sideways", "lower")
        with pytest.raises(ValueError):
            limit_value(1.0, 0.1, "relative", "diagonal")

    def test_suggest_tolerance_admits_and_is_deterministic(self):
        for candidate, baseline, mode, direction in [
            (105.0, 100.0, "relative", "lower"),
            (0.123456789, 0.1, "absolute", "lower"),
            (0.7, 0.9, "relative", "higher"),
            (0.7, 0.9, "absolute", "higher"),
        ]:
            first = suggest_tolerance(candidate, baseline, mode, direction)
            second = suggest_tolerance(candidate, baseline, mode, direction)
            assert first == second
            assert within_tolerance(candidate, baseline, first, mode, direction)

    def test_suggest_tolerance_edges(self):
        assert suggest_tolerance(99.0, 100.0, "relative", "lower") == 0.0
        assert suggest_tolerance(100.0, 100.0, "relative", "lower") == 0.0
        assert suggest_tolerance(1.0, 0.0, "relative", "lower") is None
        assert suggest_tolerance(1.0, 0.0, "absolute", "lower") == pytest.approx(1.0)


class TestMetrics:
    def test_direction_from_name(self):
        assert metric_direction("latency/e2e/mean") == "lower"
        assert metric_direction("cost/task_seconds") == "lower"
        assert metric_direction("violation_rate/e2e") == "lower"
        assert metric_direction("fulfillment/e2e") == "higher"
        assert metric_direction("utilization/cpu") == "higher"

    def test_series_filters_none_and_counts_non_finite(self):
        series = MetricSeries("latency/x", [1.0, None, float("nan"), 2.0, float("inf")])
        assert series.values == [1.0, 2.0]
        assert series.dropped_non_finite == 2
        stats = series.stats()
        assert stats["count"] == 2
        assert stats["avg"] == pytest.approx(1.5)

    def test_empty_series_stats_are_none(self):
        stats = MetricSeries("latency/x", [None, None]).stats()
        assert stats["count"] == 0
        assert stats["avg"] is None and stats["p95"] is None

    def test_extract_metrics_covers_the_canonical_names(self):
        series = extract_metrics(make_aggregate())
        assert set(series) == {
            "fulfillment/e2e", "violation_rate/e2e",
            "latency/e2e/mean", "latency/e2e/p95",
            "cost/task_seconds", "utilization/cpu", "cost/parallelism/worker",
        }
        assert series["latency/e2e/mean"].stats()["count"] == 3
        assert series["violation_rate/e2e"].stats()["avg"] == 0.0

    def test_metrics_from_stats_rejects_junk(self):
        with pytest.raises(ValueError):
            metrics_from_stats({"m": {"avgg": 1.0}})
        with pytest.raises(ValueError):
            metrics_from_stats({"m": {"direction": "diagonal", "avg": 1.0}})
        with pytest.raises(ValueError):
            metrics_from_stats({"m": {"avg": float("nan")}})


class TestBaseline:
    def test_round_trips_through_file(self, tmp_path):
        baseline = Baseline.from_aggregate("tiny", make_aggregate())
        path = baseline.write(str(tmp_path / "tiny.json"))
        again = Baseline.read(path)
        assert again.describe() == baseline.describe()
        assert again.scenario == {"grid": {"name": "tiny", "shards": 3}}

    @pytest.mark.parametrize("bad", [
        {"schema": 9, "metrics": {"m": {"avg": 1.0}}},
        {"metrics": {}},
        {"name": "x"},
        {"metrics": {"m": {"avg": 1.0}}, "surprise": 1},
        "not-an-object",
    ])
    def test_rejects_malformed_files(self, bad):
        with pytest.raises(ValueError):
            Baseline.from_dict(bad)


class TestCompare:
    def test_self_comparison_is_green(self):
        aggregate = make_aggregate()
        baseline = Baseline.from_aggregate("tiny", aggregate)
        comparison = compare_runs(baseline, [Candidate.from_aggregate("c", aggregate)])
        assert comparison.passed
        assert comparison.failed_metrics() == []
        assert comparison.checks and all(c.passed for c in comparison.checks)

    def test_regression_fails_and_names_the_metric(self):
        baseline = Baseline.from_aggregate("tiny", make_aggregate())
        worse = make_aggregate(latencies=(0.030, 0.036, 0.033))
        comparison = compare_runs(baseline, [Candidate.from_aggregate("c", worse)])
        assert not comparison.passed
        assert "latency/e2e/mean" in comparison.failed_metrics()
        failing = [c for c in comparison.failures() if c.metric == "latency/e2e/mean"]
        assert failing and all(c.suggested is not None for c in failing)
        # improvements in the good direction never fail
        assert "cost/parallelism/worker" not in comparison.failed_metrics()

    def test_exactly_at_bound_passes(self):
        baseline = Baseline(
            "edge",
            {"latency/x": {"direction": "lower", "avg": 100.0}},
            tolerance={"schema": 1, "mode": "relative",
                       "default": {"avg": 0.05}, "metrics": {}},
        )
        at_limit = Candidate("c", {"latency/x": {"direction": "lower", "avg": 105.0}})
        assert compare_runs(baseline, [at_limit]).passed

    def test_missing_metric_is_a_problem(self):
        baseline = Baseline.from_aggregate("tiny", make_aggregate())
        partial = Candidate("c", {"latency/e2e/mean": {"avg": 0.011}})
        comparison = compare_runs(baseline, [partial])
        assert not comparison.passed
        missing = [p for p in comparison.problems if "missing" in p.issue]
        assert missing and "cost/task_seconds" in comparison.failed_metrics()

    def test_missing_statistic_is_a_problem(self):
        baseline = Baseline(
            "b", {"latency/x": {"direction": "lower", "avg": 1.0, "max": 2.0}}
        )
        no_max = Candidate("c", {"latency/x": {"direction": "lower", "avg": 1.0}})
        comparison = compare_runs(baseline, [no_max])
        assert any("'max' missing" in p.issue for p in comparison.problems)
        assert not comparison.passed

    def test_nan_values_in_candidate_are_flagged(self):
        aggregate = make_aggregate()
        baseline = Baseline.from_aggregate("tiny", aggregate)
        poisoned = make_aggregate()
        poisoned["shards"][0]["series"]["feeds"]["e2e"]["mean_latency"] = float("nan")
        comparison = compare_runs(
            baseline, [Candidate.from_aggregate("c", poisoned)]
        )
        assert not comparison.passed
        assert any("non-finite" in p.issue for p in comparison.problems)

    def test_new_metrics_are_reported_not_checked(self):
        baseline = Baseline("b", {"latency/x": {"direction": "lower", "avg": 1.0}})
        candidate = Candidate("c", {
            "latency/x": {"direction": "lower", "avg": 1.0},
            "latency/y": {"direction": "lower", "avg": 5.0},
        })
        comparison = compare_runs(baseline, [candidate])
        assert comparison.passed
        assert comparison.new_metrics == ["latency/y"]

    def test_to_dict_is_canonical_and_json_safe(self):
        baseline = Baseline.from_aggregate("tiny", make_aggregate())
        worse = make_aggregate(latencies=(0.030, 0.036, 0.033))
        comparison = compare_runs(baseline, [Candidate.from_aggregate("c", worse)])
        first = json.dumps(comparison.to_dict(suggest=True), sort_keys=True,
                           allow_nan=False)
        second = json.dumps(comparison.to_dict(suggest=True), sort_keys=True,
                            allow_nan=False)
        assert first == second
        data = json.loads(first)
        assert data["passed"] is False
        assert data["failed_metrics"]
        assert data["suggested_tolerance"]["metrics"]


class TestSuggestMode:
    def test_suggested_spec_admits_every_source_run(self):
        runs = [
            make_aggregate(latencies=(0.010, 0.012, 0.011)),
            make_aggregate(latencies=(0.013, 0.015, 0.014)),
            make_aggregate(latencies=(0.009, 0.016, 0.012)),
        ]
        baseline = Baseline.from_aggregate("seed1", runs[0])
        candidates = [
            Candidate.from_aggregate(f"seed{i + 1}", run)
            for i, run in enumerate(runs)
        ]
        _, suggested = suggest_from_runs(baseline, candidates)
        admitted = compare_runs(
            baseline, candidates, tolerance=ToleranceSpec.from_dict(suggested)
        )
        assert admitted.passed

    def test_suggest_is_deterministic_across_invocations(self):
        runs = [make_aggregate(latencies=(0.010 + 0.001 * s, 0.012, 0.011))
                for s in range(4)]
        baseline = Baseline.from_aggregate("seeds", runs[0])
        candidates = [Candidate.from_aggregate(f"s{i}", r)
                      for i, r in enumerate(runs)]
        first = suggest_from_runs(baseline, candidates)[1]
        second = suggest_from_runs(baseline, candidates)[1]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestRendering:
    def _comparison(self, green=True):
        baseline = Baseline.from_aggregate("tiny", make_aggregate())
        run = make_aggregate() if green else make_aggregate(
            latencies=(0.030, 0.036, 0.033)
        )
        return compare_runs(baseline, [Candidate.from_aggregate("cand", run)])

    def test_text_report_mentions_verdict_and_metrics(self):
        text = render_comparison(self._comparison(green=True))
        assert "PASS" in text and "latency/e2e/mean" in text
        red = render_comparison(self._comparison(green=False))
        assert "FAIL" in red and "suggested" in red

    def test_spread_bar_shape(self):
        bar = spread_bar(1.0, 2.0, 3.0, 4.0, lo=0.0, hi=5.0, width=30)
        assert len(bar) == 30
        assert bar.count("|") == 2 and "O" in bar and "=" in bar
        assert spread_bar(1.0, 1.0, 1.0, 1.0, lo=1.0, hi=1.0) == "O"
        with pytest.raises(ValueError):
            spread_bar(1.0, 2.0, 3.0, 4.0, lo=0.0, hi=5.0, width=2)

    def test_html_report_is_a_standalone_page(self, tmp_path):
        comparison = self._comparison(green=False)
        html_text = render_comparison_html(comparison)
        assert html_text.startswith("<!DOCTYPE html>")
        assert "latency/e2e/mean" in html_text and "FAIL" in html_text
        path = write_comparison_html(comparison, str(tmp_path / "report.html"))
        assert read_bytes(path).decode("utf-8") == html_text


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    """One real 2-shard sweep the CLI tests share.

    Duration must clear the recorder's 5 s sampling interval, or the
    latency feeds stay empty and there is nothing to gate on.
    """
    out = str(tmp_path_factory.mktemp("evalcli") / "tiny")
    grid = SweepGrid(name="tiny", seeds=(1, 2), rates=(250.0,), bounds=(0.030,),
                     workloads=("steady",), actuation=(False,), duration=12.0)
    result = run_sweep(grid, out, workers=1)
    return out, result.aggregate


class TestCompareCli:
    def test_round_trip_on_a_tiny_sweep(self, tiny_sweep, tmp_path, capsys):
        out, _ = tiny_sweep
        baseline_path = str(tmp_path / "tiny-baseline.json")
        # bootstrap: pin the sweep as the baseline (no baseline yet)
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        assert os.path.exists(baseline_path)
        capsys.readouterr()

        # the same run gates green, twice, byte-identically
        json1 = str(tmp_path / "cmp1.json")
        json2 = str(tmp_path / "cmp2.json")
        html = str(tmp_path / "cmp.html")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--json", json1, "--html", html]) == 0
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--json", json2]) == 0
        assert read_bytes(json1) == read_bytes(json2)
        assert read_bytes(html).startswith(b"<!DOCTYPE html>")
        report = json.loads(read_bytes(json1))
        assert report["passed"] is True and report["failed_metrics"] == []
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_nonzero_and_names_the_metric(
        self, tiny_sweep, tmp_path, capsys
    ):
        out, aggregate = tiny_sweep
        baseline_path = str(tmp_path / "b.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        worse = json.loads(json.dumps(aggregate))
        for shard in worse["shards"]:
            for feed in shard["series"]["feeds"].values():
                feed["mean_latency"] *= 3.0
        bad_path = str(tmp_path / "bad_aggregate.json")
        write_json(bad_path, worse)
        capsys.readouterr()
        assert cli.main(["compare", bad_path, "--baseline", baseline_path]) == 1
        output = capsys.readouterr().out
        assert "out-of-tolerance metrics:" in output
        assert "latency/e2e/mean" in output

    def test_suggest_prints_an_admitting_spec(self, tiny_sweep, tmp_path, capsys):
        out, _ = tiny_sweep
        baseline_path = str(tmp_path / "b.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        json_path = str(tmp_path / "cmp.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--suggest", "--json", json_path]) == 0
        report = json.loads(read_bytes(json_path))
        spec = ToleranceSpec.from_dict(report["suggested_tolerance"])
        assert spec.mode == "relative"
        assert "suggested tolerance spec" in capsys.readouterr().out

    def test_tolerance_override_file(self, tiny_sweep, tmp_path, capsys):
        out, aggregate = tiny_sweep
        baseline_path = str(tmp_path / "b.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        worse = json.loads(json.dumps(aggregate))
        for shard in worse["shards"]:
            for feed in shard["series"]["feeds"].values():
                feed["mean_latency"] *= 3.0
        bad_path = str(tmp_path / "bad.json")
        write_json(bad_path, worse)
        wide = str(tmp_path / "wide.json")
        write_json(wide, {"schema": 1, "mode": "relative",
                          "default": {"avg": 100.0, "p95": 100.0, "max": 100.0},
                          "metrics": {}})
        capsys.readouterr()
        assert cli.main(["compare", bad_path, "--baseline", baseline_path,
                         "--tolerance", wide]) == 0

    def test_usage_errors_exit_2(self, tiny_sweep, tmp_path, capsys):
        out, _ = tiny_sweep
        assert cli.main(["compare", out,
                         "--baseline", str(tmp_path / "nope.json")]) == 2
        baseline_path = str(tmp_path / "b.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        assert cli.main(["compare", str(tmp_path / "missing-run.json"),
                         "--baseline", baseline_path]) == 2
        not_a_run = str(tmp_path / "not_a_run.json")
        write_json(not_a_run, {"neither": True})
        assert cli.main(["compare", not_a_run, "--baseline", baseline_path]) == 2
        bad_tolerance = str(tmp_path / "bad_tol.json")
        write_json(bad_tolerance, {"mode": "sideways"})
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--tolerance", bad_tolerance]) == 2
        capsys.readouterr()

    def test_aggregate_of_another_schema_exits_2_naming_it(
        self, tiny_sweep, tmp_path, capsys
    ):
        out, aggregate = tiny_sweep
        baseline_path = str(tmp_path / "b.json")
        assert cli.main(["compare", out, "--baseline", baseline_path,
                         "--write-baseline", baseline_path]) == 0
        newer = json.loads(json.dumps(aggregate))
        newer["schema"] = 99
        newer_path = str(tmp_path / "newer" / "aggregate.json")
        write_json(newer_path, newer)
        capsys.readouterr()
        assert cli.main(["compare", newer_path, "--baseline", baseline_path]) == 2
        assert "unsupported aggregate schema 99" in capsys.readouterr().out

class TestOneCompareInput:
    """A RUN and a ``--baseline`` go through the same reader."""

    @pytest.mark.parametrize("change, reason", [
        ({"schema": 99}, "unsupported baseline schema 99 (expected 1)"),
        ({"extra": 1}, "unknown baseline keys: extra"),
    ], ids=["other-schema", "unknown-key"])
    def test_a_baseline_format_run_is_refused_like_a_baseline(
        self, change, reason, tmp_path, capsys
    ):
        with open(TWITTER_BASELINE, encoding="utf-8") as handle:
            bad = dict(json.load(handle), **change)
        bad_path = str(tmp_path / "bad.json")
        write_json(bad_path, bad)
        assert cli.main(["compare", TWITTER_BASELINE, "--baseline", bad_path]) == 2
        as_baseline = capsys.readouterr().out
        assert as_baseline == f"cannot load baseline {bad_path!r}: {reason}\n"
        assert cli.main(["compare", bad_path, "--baseline", TWITTER_BASELINE]) == 2
        as_run = capsys.readouterr().out
        assert as_run == f"cannot load run {bad_path!r}: {reason}\n"

    def test_load_run_names_and_reads_each_format(self, tiny_sweep, tmp_path):
        from repro.evaluate import load_run

        out, aggregate = tiny_sweep
        for path in (out, os.path.join(out, "aggregate.json")):
            name, stats, raw = load_run(path)
            assert name == stats.name == "tiny" and raw == aggregate
            assert stats.metrics == Baseline.from_aggregate("tiny", aggregate).metrics
        unnamed = Baseline.from_aggregate("x", aggregate).describe()
        del unnamed["name"]
        path = str(tmp_path / "pinned.json")
        write_json(path, unnamed)
        name, stats, raw = load_run(path)
        assert (name, stats.name, raw) == ("pinned", "pinned", None)
        name, stats, raw = load_run(TWITTER_BASELINE)
        assert (name, stats.name, raw) == ("twitter", "twitter", None)
        assert stats.describe() == Baseline.read(TWITTER_BASELINE).describe()

    def test_pinned_run_round_trips(self, tiny_sweep, tmp_path, capsys):
        out, _ = tiny_sweep
        pinned = str(tmp_path / "pinned.json")
        assert cli.main(["compare", out, "--baseline", TWITTER_BASELINE,
                         "--write-baseline", pinned]) in (0, 1)
        assert cli.main(["compare", pinned, "--baseline", pinned]) == 0
        assert cli.main(["compare", out, "--baseline", pinned]) == 0
        repinned = str(tmp_path / "repinned.json")
        assert cli.main(["compare", pinned, "--baseline", pinned,
                         "--write-baseline", repinned]) == 0
        assert read_bytes(repinned) == read_bytes(pinned)
        capsys.readouterr()


class TestGoldenTwitterBaseline:
    """The committed Twitter baseline must gate itself fully green."""

    def test_baseline_file_is_loadable_and_canonical(self, tmp_path):
        baseline = Baseline.read(TWITTER_BASELINE)
        assert baseline.name == "twitter"
        assert baseline.scenario["grid"]["workloads"] == ["twitter"]
        # the committed bytes are exactly the canonical writer's output
        rewritten = baseline.write(str(tmp_path / "twitter.json"))
        assert read_bytes(rewritten) == read_bytes(TWITTER_BASELINE)

    def test_self_comparison_is_fully_green_and_byte_identical(self, tmp_path):
        with open(TWITTER_BASELINE, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        baseline = Baseline.from_dict(data)
        candidate = Candidate(data["name"], data["metrics"])
        comparison = compare_runs(baseline, [candidate])
        assert comparison.passed
        assert comparison.checks and comparison.problems == []
        first = write_json(str(tmp_path / "c1.json"), comparison.to_dict())
        second = write_json(str(tmp_path / "c2.json"), comparison.to_dict())
        assert read_bytes(first) == read_bytes(second)
        report = render_comparison(comparison)
        assert "PASS" in report and "FAIL" not in report

    def test_cli_self_comparison_round_trip(self, tmp_path, capsys):
        json1 = str(tmp_path / "g1.json")
        json2 = str(tmp_path / "g2.json")
        assert cli.main(["compare", TWITTER_BASELINE,
                         "--baseline", TWITTER_BASELINE, "--json", json1]) == 0
        assert cli.main(["compare", TWITTER_BASELINE,
                         "--baseline", TWITTER_BASELINE, "--json", json2]) == 0
        assert read_bytes(json1) == read_bytes(json2)
        report = json.loads(read_bytes(json1))
        assert report["passed"] is True
        assert report["baseline"] == "twitter"
        capsys.readouterr()
