"""Figure 6 + the in-text task-hour table: elastic PrimeTester (Sec. V-A).

Two configurations of the PrimeTester job under the full phase plan:

* **elastic** — Nephele-20ms with reactive scaling, Prime Tester
  parallelism free in ``[p_min, p_max]`` (paper: 1..520);
* **baseline** — unelastic Nephele-16KiB with a manually tuned fixed
  Prime Tester parallelism, "as low as possible while not leading to
  overload at peak rates" (paper: 175).

Reported (the paper's Fig. 6 shape):

* constraint fulfillment ratio (paper: ≈ 91 %) and the dominant
  violation at the warm-up → increment rate jump;
* the elastic parallelism trajectory (scale-downs in warm-up, reactive
  scale-ups per increment step, corrective scale-downs after
  over-scaling);
* latency mean / p95 for both configurations (baseline's floor is
  hundreds of ms; paper: 348 / 564 ms);
* task-hours: elastic ≈ manually tuned baseline; and the sweep over
  higher bounds ℓ = 30/40/50/100 ms with monotonically decreasing
  task-hours (paper: 46.4/44.3/41.8/37.6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.engine.engine import EngineConfig
from repro.experiments.ascii import series_panel
from repro.experiments.recording import SeriesRecorder
from repro.experiments.report import format_table, ms, write_csv
from repro.experiments.step_load import StepLoadParams, run_point
from repro.workloads.primetester import SCALED_CLUSTER, run_primetester


@dataclass
class Fig6Params(StepLoadParams):
    """Run-scale knobs for the Fig. 6 experiment."""

    #: manually tuned fixed parallelism of the unelastic baseline
    #: (scaled counterpart of the paper's 175 tasks)
    baseline_testers: int = 10
    #: bounds for the task-hour sweep (paper: 30/40/50/100 ms)
    sweep_bounds: Tuple[float, ...] = (0.030, 0.040, 0.050, 0.100)
    recording_interval: float = 5.0

    def quick(self) -> "Fig6Params":
        """The reduced variant, ``--quick``."""
        return replace(super().quick(), recording_interval=4.0, sweep_bounds=(0.040,))


class RunResult:
    """One configuration's run outcome (``fulfillment`` None: unconstrained)."""

    def __init__(
        self,
        name: str,
        recorder: SeriesRecorder,
        task_seconds: float,
        fulfillment: Optional[float] = None,
    ) -> None:
        self.name = name
        self.rows = recorder.rows
        self.task_seconds = task_seconds
        self.fulfillment = fulfillment
        means = [r.latency_mean.get("e2e") for r in self.rows]
        means = [m for m in means if m is not None]
        p95s = [r.latency_p95.get("e2e") for r in self.rows]
        p95s = [p for p in p95s if p is not None]
        self.min_mean_latency = min(means) if means else None
        self.min_p95_latency = min(p95s) if p95s else None
        self.parallelism_series = recorder.parallelism_series("PrimeTester")
        self.max_parallelism = max((p for _, p in self.parallelism_series), default=0)
        self.min_parallelism = min(
            (p for _, p in self.parallelism_series), default=0
        )
        # Task-seconds of the elastic vertex alone (the fixed sources and
        # sinks put a large constant floor under the total).
        self.pt_task_seconds = sum(p for _, p in self.parallelism_series) * recorder.interval


class Fig6Result:
    """Elastic vs. baseline comparison plus the ℓ-sweep."""

    def __init__(self, params: Fig6Params) -> None:
        self.params = params
        self.elastic: Optional[RunResult] = None
        self.baseline: Optional[RunResult] = None
        #: bound (seconds) -> (task_seconds, fulfillment, pt_task_seconds)
        self.sweep: Dict[float, Tuple[float, float, float]] = {}

    def report(self) -> str:
        """Fig. 6 + task-hour table, the paper's qualitative shape."""
        lines = [
            "Fig. 6 — PrimeTester with and without reactive scaling",
        ]
        rows = []
        for run_result in (self.elastic, self.baseline):
            if run_result is None:
                continue
            rows.append(
                [
                    run_result.name,
                    f"{run_result.fulfillment * 100:.1f}%" if run_result.fulfillment is not None else "-",
                    ms(run_result.min_mean_latency),
                    ms(run_result.min_p95_latency),
                    f"{run_result.min_parallelism}..{run_result.max_parallelism}",
                    round(run_result.task_seconds),
                ]
            )
        lines.append(
            format_table(
                [
                    "config",
                    "constraint fulfilled",
                    "best mean lat (ms)",
                    "best p95 lat (ms)",
                    "PT parallelism",
                    "task-seconds",
                ],
                rows,
            )
        )
        if self.elastic is not None:
            lines.append("")
            lines.append(
                series_panel(
                    "elastic run series (time left to right):",
                    [
                        ("attempted rate", [r.attempted_rate for r in self.elastic.rows]),
                        ("effective rate", [r.effective_rate for r in self.elastic.rows]),
                        (
                            "p(PrimeTester)",
                            [r.parallelism.get("PrimeTester") for r in self.elastic.rows],
                        ),
                        (
                            "mean latency (ms)",
                            [ms(r.latency_mean.get("e2e")) for r in self.elastic.rows],
                        ),
                        (
                            "p95 latency (ms)",
                            [ms(r.latency_p95.get("e2e")) for r in self.elastic.rows],
                        ),
                    ],
                )
            )
        if self.sweep:
            sweep_rows = []
            if self.elastic is not None:
                sweep_rows.append(
                    [
                        f"{self.params.constraint_bound * 1000:.0f} ms",
                        round(self.elastic.task_seconds),
                        round(self.elastic.pt_task_seconds),
                        f"{self.elastic.fulfillment * 100:.1f}%",
                    ]
                )
            for bound, (task_seconds, fulfillment, pt_seconds) in sorted(self.sweep.items()):
                sweep_rows.append(
                    [f"{bound * 1000:.0f} ms", round(task_seconds), round(pt_seconds), f"{fulfillment * 100:.1f}%"]
                )
            lines.append("")
            lines.append(
                format_table(
                    ["constraint", "task-seconds", "PT task-seconds", "fulfilled"],
                    sweep_rows,
                    title="Task-hour sweep (paper: higher bound => fewer task hours)",
                )
            )
        return "\n".join(lines)

    def series_csv(self, path: str) -> str:
        """Write both configurations' series to CSV."""
        rows = []
        for run_result in (self.elastic, self.baseline):
            if run_result is None:
                continue
            for row in run_result.rows:
                rows.append(
                    [
                        run_result.name,
                        row.time,
                        row.attempted_rate,
                        row.effective_rate,
                        row.parallelism.get("PrimeTester"),
                        ms(row.latency_mean.get("e2e")),
                        ms(row.latency_p95.get("e2e")),
                        row.task_seconds,
                    ]
                )
        return write_csv(
            path,
            [
                "config",
                "time_s",
                "attempted_rate",
                "effective_rate",
                "pt_parallelism",
                "mean_ms",
                "p95_ms",
                "task_seconds",
            ],
            rows,
        )


def run_elastic(
    params: Fig6Params, bound: Optional[float] = None, name: str = "elastic-20ms"
) -> RunResult:
    """Run the elastic configuration with the given constraint bound."""
    point, recorder = run_point(
        params, bound=bound, recording_interval=params.recording_interval
    )
    return RunResult(name, recorder, point.task_seconds, point.fulfillment)


def run_baseline(params: Fig6Params) -> RunResult:
    """Run the unelastic, manually provisioned Nephele-16KiB baseline."""
    workload = replace(
        params.workload,
        n_testers=params.baseline_testers,
        tester_min=params.baseline_testers,
        tester_max=params.baseline_testers,
    )
    job, recorder = run_primetester(
        workload,
        EngineConfig.nephele_fixed_buffer(seed=params.seed, **SCALED_CLUSTER),
        recording_interval=params.recording_interval,
    )
    return RunResult("baseline-16KiB", recorder, job.engine.resources.task_seconds())


def run(params: Optional[Fig6Params] = None) -> Fig6Result:
    """Run the full Fig. 6 comparison and the ℓ sweep."""
    params = params or Fig6Params()
    result = Fig6Result(params)
    result.elastic = run_elastic(params)
    result.baseline = run_baseline(params)
    for bound in params.sweep_bounds:
        sweep_run = run_elastic(params, bound, name=f"elastic-{bound * 1000:.0f}ms")
        result.sweep[bound] = (
            sweep_run.task_seconds, sweep_run.fulfillment, sweep_run.pt_task_seconds
        )
    return result
