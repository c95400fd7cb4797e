"""Tests for the compare_policies harness."""

import pytest

from repro.experiments.compare_policies import POLICY_KNOBS, CompareParams
from repro.experiments.step_load import Point, run_point
from repro.workloads.primetester import PrimeTesterParams


class TestComparePoliciesHarness:
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
        return CompareParams(workload=workload)

    @pytest.mark.parametrize(
        "policy", ["scale-reactively", "predictive", "cpu-threshold", "rate-based"]
    )
    def test_each_policy_runs(self, policy):
        point, _ = run_point(self.micro_params(), policy, **POLICY_KNOBS[policy])
        assert 0.0 <= point.fulfillment <= 1.0
        assert point.task_seconds > 0
        assert point.max_parallelism >= 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown scaling policy"):
            run_point(self.micro_params(), "bogus")

    def test_report_and_csv(self, tmp_path):
        import os
        from repro.experiments.compare_policies import CompareResult

        result = CompareResult(self.micro_params())
        result.outcomes["scale-reactively"] = Point(0.9, 1000.0, 5, 8)
        text = result.report()
        assert "scale-reactively" in text
        assert "90.0%" in text
        path = result.series_csv(os.path.join(tmp_path, "p.csv"))
        assert os.path.getsize(path) > 0
