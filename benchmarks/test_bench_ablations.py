"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation runs the quick elastic PrimeTester scenario with one
mechanism altered and reports the effect on constraint fulfillment,
resource consumption and scaling churn:

* **fitting coefficient** ``e_jv`` on vs. off (paper Sec. IV-C2: without
  it "the model might recommend a scale-down when a scale-up would
  actually be necessary");
* **queue-wait share** ``w_fraction`` (paper fixes 20 % for queueing /
  80 % for batching);
* **post-scale-up inactivity** (paper: 2 adjustment intervals).
"""

from dataclasses import replace

import pytest

from repro.engine.engine import EngineConfig
from repro.experiments.report import format_table
from repro.workloads.primetester import SCALED_CLUSTER, STEP_LOAD, run_primetester

from conftest import save_report

WORKLOAD = replace(STEP_LOAD, peak_rate=300.0, increment_steps=5, step_duration=8.0)


def run_variant(**config_overrides):
    config = EngineConfig.nephele_adaptive(
        elastic=True, seed=11, **SCALED_CLUSTER, **config_overrides
    )
    job, _ = run_primetester(WORKLOAD, config, bound=0.020)
    return {
        "fulfillment": job.trackers[0].fulfillment_ratio,
        "task_seconds": job.engine.resources.task_seconds(),
        "scaling_events": len(job.scaler.events),
    }


@pytest.fixture(scope="module")
def ablation_results():
    return {
        "paper defaults": run_variant(),
        "no fitting (e=1)": run_variant(e_bounds=(1.0, 1.0)),
        "w_fraction=0.5": run_variant(w_fraction=0.5),
        "no inactivity": run_variant(inactivity_intervals=0),
    }


def test_bench_ablations(benchmark, ablation_results):
    """Time the default variant; report the ablation table."""
    result = benchmark.pedantic(run_variant, rounds=1, iterations=1)
    assert result["fulfillment"] > 0
    rows = [
        [name, f"{r['fulfillment'] * 100:.1f}%", round(r["task_seconds"]), r["scaling_events"]]
        for name, r in ablation_results.items()
    ]
    save_report(
        "bench_ablations.txt",
        format_table(
            ["variant", "fulfilled", "task-seconds", "scaling events"],
            rows,
            title="Ablations on the elastic PrimeTester (quick scenario)",
        ),
    )


def test_ablation_all_variants_complete(ablation_results):
    for name, result in ablation_results.items():
        assert result["fulfillment"] >= 0.5, name
        assert result["task_seconds"] > 0, name


def test_ablation_no_inactivity_scales_more_often(ablation_results):
    """Without the inactivity phase the scaler reacts (and churns) more."""
    assert (
        ablation_results["no inactivity"]["scaling_events"]
        >= ablation_results["paper defaults"]["scaling_events"]
    )
