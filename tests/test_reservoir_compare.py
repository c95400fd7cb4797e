"""Tests for the compare_policies harness."""

import pytest

from repro.experiments.compare_policies import CompareParams, run_policy
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
        outcome = run_policy(self.micro_params(), policy)
        assert outcome.policy == policy
        assert 0.0 <= outcome.fulfillment <= 1.0
        assert outcome.task_seconds > 0
        assert outcome.max_parallelism >= 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_policy(self.micro_params(), "bogus")

    def test_report_and_csv(self, tmp_path):
        import os
        from repro.experiments.compare_policies import CompareResult, PolicyOutcome

        result = CompareResult(self.micro_params())
        result.outcomes["scale-reactively"] = PolicyOutcome(
            "scale-reactively", 0.9, 1000.0, 5, 8
        )
        text = result.report()
        assert "scale-reactively" in text
        assert "90.0%" in text
        path = result.series_csv(os.path.join(tmp_path, "p.csv"))
        assert os.path.getsize(path) > 0
