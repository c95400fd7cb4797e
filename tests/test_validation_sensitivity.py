"""Tests for the validation and sensitivity harnesses."""

import os
from dataclasses import replace

import pytest

from repro.experiments.sensitivity import SensitivityParams, run_point
from repro.experiments.validation import ValidationParams
from repro.experiments.validation import run as run_validation
from repro.workloads.primetester import PrimeTesterParams


@pytest.fixture(scope="module")
def validation_result():
    params = ValidationParams(utilizations=(0.3, 0.7), duration=60.0)
    return run_validation(params)


class TestValidationHarness:
    def test_engine_agrees_with_theory(self, validation_result):
        """Measured latency within ~35 % of the Allen–Cunneen prediction."""
        assert validation_result.max_relative_error < 0.35

    def test_latency_grows_with_utilization(self, validation_result):
        measured = [p.measured for p in validation_result.points]
        assert measured == sorted(measured)

    def test_measured_at_most_predicted_plus_tolerance(self, validation_result):
        """Tandem departures are smoother than Poisson, so the analytic
        prediction (Poisson at every stage) should sit at or above the
        engine's measurement."""
        for point in validation_result.points:
            assert point.measured <= point.predicted * 1.15

    def test_report_and_csv(self, tmp_path, validation_result):
        text = validation_result.report()
        assert "queueing theory" in text
        path = validation_result.series_csv(os.path.join(tmp_path, "v.csv"))
        assert os.path.getsize(path) > 0


class TestSensitivityHarness:
    def micro_params(self):
        workload = PrimeTesterParams(
            n_sources=2,
            n_testers=2,
            n_sinks=1,
            tester_min=1,
            tester_max=8,
            warmup_rate=20.0,
            peak_rate=100.0,
            increment_steps=2,
            step_duration=5.0,
            tester_service_mean=0.002,
        )
        return SensitivityParams(workload=workload)

    def test_run_point_overrides_config(self):
        point = run_point(self.micro_params(), rho_max=0.8)
        assert point.parameter == "rho_max"
        assert point.value == 0.8
        assert 0.0 <= point.fulfillment <= 1.0

    def test_quick_grid_is_reduced(self):
        full = SensitivityParams()
        quick = full.quick()
        assert sum(len(v) for v in quick.sweeps.values()) < sum(
            len(v) for v in full.sweeps.values()
        )

    def test_report_renders(self):
        from repro.experiments.sensitivity import SensitivityResult, SweepPoint

        result = SensitivityResult(self.micro_params())
        result.points.append(SweepPoint("rho_max", 0.9, 0.95, 100.0, 3))
        text = result.report()
        assert "rho_max" in text
        assert "95.0%" in text


class TestCliNewExperiments:
    def test_validation_via_cli(self, capsys):
        # Monkeypatch-free: validation's default sweep is a few minutes;
        # just check the command is registered.
        from repro.experiments.report import FIGURES

        assert "validation" in FIGURES
        assert "sensitivity" in FIGURES
