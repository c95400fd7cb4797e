"""Tests for the benchmark harness behind ``python -m repro bench``.

The real benchmark sizes would make the test suite crawl, so these tests
run the harness at toy event counts and exercise the payload schema, the
round-trip through ``write_results``/``load_results``, and the
machine-independent regression check logic with synthetic payloads.
"""

from __future__ import annotations

import copy
import json

import pytest

import repro.bench.core as bench
from repro import cli
from repro.bench.legacy import LegacySimulator
from repro.simulation.kernel import Simulator


@pytest.fixture
def tiny_results(monkeypatch):
    """One harness run at toy sizes (shared per test via function scope)."""
    monkeypatch.setattr(bench, "QUICK_EVENTS", 800)
    monkeypatch.setattr(bench, "QUICK_REPEATS", 1)
    return bench.run_benchmarks(quick=True, macro=False)


class TestLegacyKernel:
    def test_legacy_and_live_fire_identically(self):
        """The frozen baseline kernel behaves exactly like the live one."""
        def drive(sim):
            fired = []
            sim.schedule(2.0, fired.append, "late")
            sim.schedule(1.0, fired.append, "early")
            handle = sim.schedule(1.5, fired.append, "cancelled")
            handle.cancel()
            sim.schedule(1.0, fired.append, "tie")
            sim.run()
            return fired, sim.now, sim.fired_events

        assert drive(LegacySimulator()) == drive(Simulator())

    def test_chain_workload_fires_requested_events(self):
        sim = Simulator()
        fired = bench._chain_workload(sim, sim.schedule_fire, 800)
        assert fired == 800


class TestRunBenchmarks:
    def test_payload_schema(self, tiny_results):
        assert tiny_results["schema"] == bench.BENCH_SCHEMA_VERSION
        assert tiny_results["kind"] == "BENCH_core"
        assert tiny_results["quick"] is True
        benchmarks = tiny_results["benchmarks"]
        for name in ("kernel", "kernel_handles", "kernel_batch"):
            entry = benchmarks[name]
            assert entry["events_per_sec"] > 0
            assert entry["baseline_events_per_sec"] > 0
            assert entry["speedup"] > 0
        assert "macro_twitter" not in benchmarks  # macro=False

    def test_payload_is_json_serializable(self, tiny_results):
        json.dumps(tiny_results)

    def test_write_and_load_roundtrip(self, tiny_results, tmp_path):
        path = str(tmp_path / "bench.json")
        assert bench.write_results(tiny_results, path) == path
        loaded = bench.load_results(path)
        assert loaded == json.loads(json.dumps(tiny_results))

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            bench.load_results(str(path))

    def test_macro_entry_carries_the_kernel_relative_ratio(self, monkeypatch):
        monkeypatch.setattr(bench, "QUICK_EVENTS", 800)
        monkeypatch.setattr(bench, "QUICK_REPEATS", 1)
        monkeypatch.setattr(
            bench, "_bench_macro_twitter",
            lambda quick: {"virtual_time_s": 1.0, "wall_time_s": 1.0,
                           "fired_events": 1000, "events_per_sec": 1000.0,
                           "final_parallelism": {}},
        )
        results = bench.run_benchmarks(quick=True, macro=True)
        macro = results["benchmarks"]["macro_twitter"]
        kernel_baseline = results["benchmarks"]["kernel"]["baseline_events_per_sec"]
        assert macro["kernel_relative"] == pytest.approx(
            1000.0 / kernel_baseline, rel=1e-3
        )

    def test_profile_macro_writes_loadable_pstats(self, monkeypatch, tmp_path):
        import pstats

        monkeypatch.setattr(
            bench, "_bench_macro_twitter",
            lambda quick: {"fired_events": 0},
        )
        path = str(tmp_path / "macro.pstats")
        assert bench.profile_macro(path) == path
        stats = pstats.Stats(path)
        assert stats.total_calls >= 1


def _macro_entry(events_per_sec: float, kernel_relative: float = None) -> dict:
    entry = {
        "events_per_sec": events_per_sec,
        "fired_events": 1,
        "wall_time_s": 1.0,
        "virtual_time_s": 1.0,
    }
    if kernel_relative is not None:
        entry["kernel_relative"] = kernel_relative
    return entry


def _synthetic(quick: bool, speedups: dict) -> dict:
    return {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": quick,
        "benchmarks": {
            name: {
                "baseline_events_per_sec": 100.0,
                "events_per_sec": 100.0 * s,
                "speedup": s,
            }
            for name, s in speedups.items()
        },
    }


class TestCheckRegression:
    def test_identical_payloads_pass(self):
        committed = _synthetic(False, {"kernel": 3.0, "kernel_batch": 5.0})
        assert bench.check_regression(copy.deepcopy(committed), committed) == []

    def test_small_slowdown_within_tolerance_passes(self):
        committed = _synthetic(False, {"kernel": 3.0})
        fresh = _synthetic(False, {"kernel": 3.0 * 0.75})
        assert bench.check_regression(fresh, committed) == []

    def test_regression_beyond_tolerance_fails(self):
        committed = _synthetic(False, {"kernel": 3.0})
        fresh = _synthetic(False, {"kernel": 3.0 * 0.5})
        failures = bench.check_regression(fresh, committed)
        assert len(failures) == 1
        assert "kernel" in failures[0]

    def test_missing_benchmark_fails(self):
        committed = _synthetic(False, {"kernel": 3.0, "kernel_batch": 5.0})
        fresh = _synthetic(False, {"kernel": 3.0})
        failures = bench.check_regression(fresh, committed)
        assert any("kernel_batch" in f for f in failures)

    def test_cross_mode_comparison_widens_tolerance(self):
        """quick-vs-full squares the tolerance (0.7 -> 0.49)."""
        committed = _synthetic(False, {"kernel": 3.0})
        fresh = _synthetic(True, {"kernel": 3.0 * 0.55})
        # 0.55 would fail same-mode (floor 0.7) but passes cross-mode (0.49).
        assert bench.check_regression(fresh, committed) == []
        assert bench.check_regression(
            _synthetic(False, {"kernel": 3.0 * 0.55}), committed
        ) != []

    def test_macro_absolute_numbers_never_gate(self):
        """Without a kernel_relative ratio the macro entry is trajectory data."""
        committed = _synthetic(False, {"kernel": 3.0})
        committed["benchmarks"]["macro_twitter"] = _macro_entry(100000.0)
        fresh = _synthetic(False, {"kernel": 3.0})
        # catastrophically slower in absolute terms, still no gate
        fresh["benchmarks"]["macro_twitter"] = _macro_entry(1.0)
        assert bench.check_regression(fresh, committed) == []

    def test_macro_kernel_relative_gates(self):
        """The macro's machine-independent ratio is checked like a speedup."""
        committed = _synthetic(False, {"kernel": 3.0})
        committed["benchmarks"]["macro_twitter"] = _macro_entry(
            100000.0, kernel_relative=0.10
        )
        ok = _synthetic(False, {"kernel": 3.0})
        # absolute ev/s halved (slower machine) but the ratio held
        ok["benchmarks"]["macro_twitter"] = _macro_entry(
            50000.0, kernel_relative=0.095
        )
        assert bench.check_regression(ok, committed) == []
        slow = _synthetic(False, {"kernel": 3.0})
        slow["benchmarks"]["macro_twitter"] = _macro_entry(
            100000.0, kernel_relative=0.05
        )
        failures = bench.check_regression(slow, committed)
        assert len(failures) == 1
        assert "macro_twitter" in failures[0]
        assert "kernel-relative" in failures[0]

    def test_macro_gate_requires_the_fresh_metric(self):
        """A fresh run without the ratio (e.g. --no-macro) fails the gate."""
        committed = _synthetic(False, {"kernel": 3.0})
        committed["benchmarks"]["macro_twitter"] = _macro_entry(
            100000.0, kernel_relative=0.10
        )
        fresh = _synthetic(False, {"kernel": 3.0})
        failures = bench.check_regression(fresh, committed)
        assert any("macro_twitter" in f and "missing" in f for f in failures)
        stale = _synthetic(False, {"kernel": 3.0})
        stale["benchmarks"]["macro_twitter"] = _macro_entry(100000.0)
        failures = bench.check_regression(stale, committed)
        assert any("macro_twitter" in f and "lacks" in f for f in failures)


class TestMain:
    def test_main_writes_and_checks(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bench, "QUICK_EVENTS", 800)
        monkeypatch.setattr(bench, "QUICK_REPEATS", 1)
        out = str(tmp_path / "BENCH_core.json")
        assert cli.main(["bench", "--quick", "--no-macro", "--out", out]) == 0
        assert bench.load_results(out)["quick"] is True
        # --check against this run's own --out file: bench writes before it
        # checks, so the comparison is deterministic (identical payloads)
        # while still driving load_results + check_regression + reporting.
        # Comparing two independent toy-sized timed runs flakes on noisy
        # machines.
        out2 = str(tmp_path / "BENCH_core2.json")
        assert (
            cli.main(["bench", "--quick", "--no-macro", "--out", out2, "--check", out2]) == 0
        )
        captured = capsys.readouterr()
        assert "regression check OK" in captured.out

    def test_main_fails_on_regression(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bench, "QUICK_EVENTS", 800)
        monkeypatch.setattr(bench, "QUICK_REPEATS", 1)
        baseline = _synthetic(True, {"kernel": 10_000.0})  # unattainable
        path = str(tmp_path / "baseline.json")
        bench.write_results(baseline, path)
        out = str(tmp_path / "fresh.json")
        assert cli.main(["bench", "--quick", "--no-macro", "--out", out, "--check", path]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION CHECK FAILED" in captured.err

    def test_format_results_mentions_every_benchmark(self, tiny_results):
        text = bench.format_results(tiny_results)
        for name in tiny_results["benchmarks"]:
            assert name in text
