"""Cross-validation of the simulated engine against queueing theory.

Runs a linear pipeline on the engine across a utilization sweep and
compares the measured per-item end-to-end latency against the analytic
prediction (:func:`repro.analysis.pipeline.predict_pipeline_latency`).
Agreement within sampling tolerance is the evidence that the substrate
reproduces the queueing phenomenology the paper's strategy relies on —
the quantitative version of the claim in DESIGN.md.

Run:  python -m repro experiment validation
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.pipeline import PipelineStage, predict_pipeline_latency
from repro.builder import BuiltPipeline
from repro.engine.engine import EngineConfig
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.experiments.recording import deploy
from repro.experiments.report import format_table, ms, write_csv
from repro.graphs.job_graph import JobGraph
from repro.qos.stats import mean_in_order
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate


@dataclass
class ValidationParams:
    """Pipeline shape and utilization sweep."""

    #: (service mean, service cv, parallelism) for the two middle stages
    stage_one: Tuple[float, float, int] = (0.004, 1.0, 2)
    stage_two: Tuple[float, float, int] = (0.002, 0.7, 1)
    #: utilizations (of the tighter stage) to sweep
    utilizations: Tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 0.9)
    duration: float = 120.0
    seed: int = 3


class ValidationPoint:
    """Measured vs. predicted latency at one load level."""

    __slots__ = ("rate", "utilization", "measured", "predicted", "relative_error")

    def __init__(self, rate: float, utilization: float, measured: float, predicted: float) -> None:
        self.rate = rate
        self.utilization = utilization
        self.measured = measured
        self.predicted = predicted
        self.relative_error = (
            abs(measured - predicted) / predicted if predicted > 0 else float("inf")
        )


class ValidationResult:
    """The full sweep."""

    def __init__(self, params: ValidationParams) -> None:
        self.params = params
        self.points: List[ValidationPoint] = []

    def report(self) -> str:
        """Measured-vs-predicted table."""
        rows = [
            [
                f"{p.utilization:.2f}",
                round(p.rate),
                ms(p.measured),
                ms(p.predicted),
                f"{p.relative_error * 100:.1f}%",
            ]
            for p in self.points
        ]
        return format_table(
            ["utilization", "rate (items/s)", "measured (ms)", "predicted (ms)", "error"],
            rows,
            title="Engine vs. queueing theory — mean end-to-end latency",
        )

    def series_csv(self, path: str) -> str:
        """Export the sweep."""
        return write_csv(
            path,
            ["utilization", "rate", "measured_s", "predicted_s", "relative_error"],
            [
                [p.utilization, p.rate, p.measured, p.predicted, p.relative_error]
                for p in self.points
            ],
        )


def _build_job(params: ValidationParams, rate: float) -> JobGraph:
    s1_mean, s1_cv, s1_p = params.stage_one
    s2_mean, s2_cv, s2_p = params.stage_two
    graph = JobGraph("validation")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: rng.random()))
    a = graph.add_vertex(
        "A", lambda: MapUDF(lambda x: x, service_dist=Gamma(s1_mean, s1_cv)),
        parallelism=s1_p,
    )
    b = graph.add_vertex(
        "B", lambda: MapUDF(lambda x: x, service_dist=Gamma(s2_mean, s2_cv)),
        parallelism=s2_p,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, a)
    graph.connect(a, b)
    graph.connect(b, sink)
    src.rate_profile = ConstantRate(rate)
    return graph


def run(params: Optional[ValidationParams] = None) -> ValidationResult:
    """Sweep load levels; measure on the engine, predict analytically."""
    params = params or ValidationParams()
    result = ValidationResult(params)
    s1_mean, s1_cv, s1_p = params.stage_one
    s2_mean, s2_cv, s2_p = params.stage_two
    # The tighter stage bounds the utilization sweep.
    per_rate_busy = max(s1_mean / s1_p, s2_mean / s2_p)
    for utilization in params.utilizations:
        rate = utilization / per_rate_busy
        config = EngineConfig(
            base_latency=0.0,
            per_batch_overhead=0.0,
            per_item_overhead=0.0,
            queue_capacity=100_000,
            channel_capacity=100_000,
            seed=params.seed,
        )
        engine, (job,), _ = deploy(config, [BuiltPipeline(_build_job(params, rate), [])])
        engine.run(params.duration)
        samples = job.drain_sink_samples("Snk").latencies()
        measured = mean_in_order(samples) if samples else float("inf")
        stages = [
            PipelineStage("A", s1_mean, s1_cv, s1_p),
            PipelineStage("B", s2_mean, s2_cv, s2_p),
        ]
        predicted = predict_pipeline_latency(stages, rate, hop_latency=0.0)
        assert predicted is not None
        result.points.append(ValidationPoint(rate, utilization, measured, predicted))
    return result
