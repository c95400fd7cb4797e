"""Self-tests of the e2e benchmark harness.

Run by explicit path (they sit outside the Tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

The smoke test runs the whole suite at 1/20 size with a traced pass and
takes about two minutes.
"""

import json
import os
import re
import subprocess
import sys

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path.insert(0, E2E)

import catalogue  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import micro  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_the_catalogue(benchmark_json):
    assert benchmark_json == catalogue.benchmark_json()


def test_benchmark_json_meets_the_contract(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert benchmark_json["paths"] == ["benchmarks/e2e"]
    assert 1 <= benchmark_json["run_seconds"] <= 60
    assert 2 <= len(benchmark_json["workloads"]) <= 8
    assert 1 <= len(benchmark_json["end_to_end"]) <= 16
    assert 1 <= len(benchmark_json["per_layer"]) <= 128
    names = []
    for workload in benchmark_json["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in benchmark_json["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in benchmark_json["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in benchmark_json["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in benchmark_json["end_to_end"])}]
    assert len(json.dumps(benchmark_json)) < 64 * 1024


def test_every_micro_row_is_catalogued():
    assert set(catalogue.MICRO) == set(micro.ROWS)


def test_every_layer_metric_says_what_it_moves():
    for row in catalogue.per_layer():
        assert row["moves"], row["name"]
        assert row["source"], row["name"]


def test_layer_table_covers_every_source_file():
    repro_root = os.path.join(ROOT, "src", "repro")
    assert layers.unmapped_sources(repro_root) == []
    assert layers.stale_entries(repro_root) == []
    assert set(layers.FILE_LAYER.values()) | set(layers.PACKAGE_LAYER.values()) \
        <= set(layers.LAYERS)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------

def _row(samples, kind="host", unit="x"):
    return dict(compare.summarize(list(samples)), kind=kind, unit=unit, samples=list(samples))


def _report(sim_speed, task_seconds, failed=0, digest="d1"):
    return {
        "ops": {"attempted": 10, "failed": failed},
        "workloads": {"station_saturated": {
            "sim_digest": digest,
            "end_to_end": {
                "sim_speed": _row(sim_speed, "host", "sim-s/wall-s"),
                "task_seconds": _row(task_seconds, "sim", "task-s"),
            },
        }},
    }


SPEC = {
    "end_to_end": [
        {"name": "sim_speed", "unit": "sim-s/wall-s", "better": "higher", "bound": 0.10},
        {"name": "task_seconds", "unit": "task-s", "better": "lower", "bound": 0.10},
    ],
    "per_layer": [],
}


def _verdicts(a, b):
    result = compare.compare(a, b, SPEC)
    return {row["metric"]: row["verdict"] for row in result["rows"]}, result["exit_status"]


def test_compare_same_runs_are_ok():
    a = _report([10.0, 10.1, 9.9, 10.05, 9.95], [450.0] * 5)
    verdicts, status = _verdicts(a, a)
    assert set(verdicts.values()) == {compare.OK} and status == 0


def test_compare_slower_host_metric_regresses():
    a = _report([10.0, 10.1, 9.9, 10.05, 9.95], [450.0] * 5)
    b = _report([8.0, 8.1, 7.9, 8.05, 7.95], [450.0] * 5)
    verdicts, status = _verdicts(a, b)
    assert verdicts["sim_speed"] == compare.REGRESSED and status == 1
    assert verdicts["task_seconds"] == compare.OK


def test_compare_wide_overlapping_spread_is_unresolved():
    a = _report([10.0, 7.0, 13.0, 8.0, 12.0], [450.0] * 5)
    b = _report([9.0, 6.5, 12.5, 7.5, 11.0], [450.0] * 5)
    verdicts, status = _verdicts(a, b)
    assert verdicts["sim_speed"] == compare.UNRESOLVED and status == 0


def test_compare_wide_spread_but_every_run_better_is_ok():
    a = _report([10.0, 7.0, 13.0, 8.0, 12.0], [450.0] * 5)
    b = _report([20.0, 14.0, 26.0, 16.0, 24.0], [450.0] * 5)
    verdicts, _ = _verdicts(a, b)
    assert verdicts["sim_speed"] == compare.OK


def test_compare_sim_metrics_exactly():
    a = _report([10.0] * 5, [450.0] * 5)
    slightly = _report([10.0] * 5, [450.0000001] * 5, digest="d2")
    verdicts, status = _verdicts(a, slightly)
    assert verdicts["task_seconds"] == compare.CHANGED
    assert verdicts["sim_digest"] == compare.CHANGED and status == 0
    much_worse = _report([10.0] * 5, [600.0] * 5, digest="d3")
    verdicts, status = _verdicts(a, much_worse)
    assert verdicts["task_seconds"] == compare.REGRESSED and status == 1


def test_compare_sim_metric_differing_between_repeats_is_not_ok():
    a = _report([10.0] * 5, [450.0] * 5)
    flaky = _report([10.0] * 5, [450.0, 450.0, 451.0, 450.0, 450.0])
    verdicts, _ = _verdicts(flaky, flaky)
    assert verdicts["task_seconds"] == compare.CHANGED
    assert _verdicts(a, flaky)[0]["task_seconds"] == compare.CHANGED


def test_compare_more_failed_operations_fails():
    a = _report([10.0] * 5, [450.0] * 5)
    b = _report([10.0] * 5, [450.0] * 5, failed=1)
    assert _verdicts(a, b)[1] == 1


# ----------------------------------------------------------------------
# the smoke run
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "report.json"
    done = subprocess.run(
        [sys.executable, os.path.join(E2E, "run.py"), "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


def test_smoke_emits_every_name(smoke_report, benchmark_json):
    report, stdout = smoke_report
    assert report["ops"]["failed"] == 0
    assert set(report["workloads"]) == {w["name"] for w in benchmark_json["workloads"]}
    for name, entry in report["workloads"].items():
        assert entry["correct"], (name, entry["failed_checks"])
        assert set(entry["end_to_end"]) == {m["name"] for m in benchmark_json["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in benchmark_json["per_layer"]}
        assert entry["unavailable"] == {}
        assert entry["sim_digest"]
        for metric in benchmark_json["end_to_end"] + benchmark_json["per_layer"]:
            assert re.search(rf"^\s+{re.escape(metric['name'])}\s", stdout, re.M)
        trace_file = os.path.join(ROOT, entry["trace_file"])
        with open(trace_file, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["spans"] and set(trace["layers"]) == set(layers.LAYERS)
        assert {"name", "layer", "calls", "self_s", "cum_s", "caller"} <= set(trace["spans"][0])


def test_smoke_report_agrees_with_itself(smoke_report, benchmark_json):
    report, _ = smoke_report
    result = compare.compare(report, report, benchmark_json)
    assert result["exit_status"] == 0
    assert result["counts"][compare.REGRESSED] == result["counts"][compare.CHANGED] == 0
