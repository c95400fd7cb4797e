"""Tests for assumption diagnostics and ASCII chart rendering."""

import pytest

from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.experiments.ascii import series_panel, sparkline
from repro.qos.diagnostics import (
    HOT_SPOT,
    LOAD_SKEW,
    AssumptionChecker,
    Finding,
)

from conftest import make_linear_job, run_linear


class TestAssumptionChecker:
    def test_detects_hot_spot(self):
        checker = AssumptionChecker(service_ratio=2.0)
        findings = checker.check(
            {"V": {"a": 0.01, "b": 0.01, "c": 0.01, "d": 0.05}},
            {},
        )
        assert len(findings) == 1
        finding = findings[0]
        assert finding.kind == HOT_SPOT
        assert finding.task_id == "d"
        assert finding.ratio == pytest.approx(5.0)
        assert "homogeneity" in finding.message

    def test_no_findings_when_homogeneous(self):
        checker = AssumptionChecker()
        findings = checker.check(
            {"V": {"a": 0.010, "b": 0.011, "c": 0.009}},
            {"V": {"a": 100.0, "b": 105.0, "c": 98.0}},
        )
        assert findings == []

    def test_detects_skew_both_directions(self):
        checker = AssumptionChecker(arrival_ratio=2.0)
        findings = checker.check(
            {},
            {"V": {"a": 100.0, "b": 100.0, "c": 100.0, "hot": 300.0, "cold": 20.0}},
        )
        kinds = {(f.task_id, f.kind) for f in findings}
        assert ("hot", LOAD_SKEW) in kinds
        assert ("cold", LOAD_SKEW) in kinds

    def test_small_vertices_skipped(self):
        checker = AssumptionChecker(min_tasks=3)
        findings = checker.check({"V": {"a": 0.01, "b": 1.0}}, {})
        assert findings == []

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AssumptionChecker(service_ratio=1.0)
        with pytest.raises(ValueError):
            AssumptionChecker(min_tasks=1)

    def test_finding_repr(self):
        finding = Finding(HOT_SPOT, "V", "V[0]", 3.0)
        assert "V[0]" in repr(finding)


class TestEngineDiagnostics:
    def test_homogeneous_cluster_clean(self):
        job = run_linear(duration=15.0, source_rate=200.0, n_workers=4,
                            service_mean=0.004, service_cv=0.3)
        assert job.check_assumptions() == []

    def test_slow_worker_flagged(self):
        engine = StreamProcessingEngine(EngineConfig())
        job = engine.submit(make_linear_job(source_rate=200.0, n_workers=4,
                                            service_mean=0.004, service_cv=0.3))
        job.runtime.vertex("Worker").tasks[0].service_multiplier = 5.0
        engine.run(15.0)
        findings = job.check_assumptions()
        assert any(f.kind == HOT_SPOT for f in findings)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        result = sparkline([1.0, 2.0, 3.0, 4.0])
        assert result[0] == "▁"
        assert result[-1] == "█"
        assert len(result) == 4

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_none_renders_space(self):
        assert sparkline([1.0, None, 2.0])[1] == " "

    def test_all_none(self):
        assert sparkline([None, None]) == "  "

    def test_downsampling(self):
        result = sparkline(list(range(100)), width=10)
        assert len(result) == 10
        assert result[-1] == "█"


class TestSeriesPanel:
    def test_multiple_series(self):
        panel = series_panel(
            "dashboard",
            [("rate", [1.0, 2.0, 3.0]), ("latency", [0.1, 0.2, None])],
        )
        lines = panel.splitlines()
        assert lines[0] == "dashboard"
        assert "rate" in lines[1] and "max 3.0" in lines[1]
        assert "latency" in lines[2]

    def test_empty_series_noted(self):
        panel = series_panel("d", [("empty", [None])])
        assert "(no data)" in panel
