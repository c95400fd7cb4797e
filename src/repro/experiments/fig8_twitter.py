"""Figure 8 reproduction: TwitterSentiment with reactive scaling (Sec. V-B).

Runs the six-vertex TwitterSentiment job against a synthetic tweet trace
(diurnal rate + a single-topic burst standing in for the paper's 69 GB
replay) with the paper's two constraints:

* Constraint (1), ℓ = 215 ms over ``(e4, HT, e5, HTM, e6, F)`` —
  dominated by the 200 ms HotTopics windows, hence insensitive to rate;
* Constraint (2), ℓ = 30 ms over ``(e1, F, e2, S, e3)`` — spiky at tweet
  bursts, mitigated by a large Sentiment scale-up.

Reported (the paper's Fig. 8 shape): per-constraint fulfillment ratios
(paper: 93 % / 96 %), the peak tweet rate, the Sentiment scale-up at the
burst, the slight over-provisioning (mean task CPU utilization, paper:
55.7 %), and the HT/F/S parallelism trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.builder import BuiltPipeline
from repro.engine.engine import DeployedJob, EngineConfig
from repro.experiments.ascii import series_panel
from repro.experiments.recording import Recording, SeriesRecorder, deploy
from repro.experiments.report import format_table, ms, write_csv
from repro.workloads.twitter_job import (
    MergedTopics,
    TwitterSentimentParams,
    build_twitter_sentiment_job,
)

ELASTIC_VERTICES = ("HotTopics", "Filter", "Sentiment")


@dataclass
class Fig8Params:
    """Run-scale knobs for the Fig. 8 experiment."""

    workload: TwitterSentimentParams = field(default_factory=TwitterSentimentParams)
    #: total run length (two compressed "days" by default)
    duration: float = 600.0
    recording_interval: float = 5.0
    seed: int = 23

    def quick(self) -> "Fig8Params":
        """The reduced variant, ``--quick``."""
        workload = replace(
            self.workload,
            period=120.0,
            bursts=((150.0, 25.0, 3.0),),
            topic_bursts=((150.0, 175.0, 0, 0.8),),
        )
        return replace(self, workload=workload, duration=240.0, recording_interval=4.0)


class Fig8Result:
    """Series and derived Fig. 8 statistics."""

    def __init__(
        self,
        params: Fig8Params,
        recorder: SeriesRecorder,
        job: DeployedJob,
    ) -> None:
        self.params = params
        self.rows = recorder.rows
        self.fulfillment: Dict[str, float] = {}
        self.intervals: Dict[str, int] = {}
        for tracker in job.trackers:
            self.fulfillment[tracker.constraint.name] = tracker.fulfillment_ratio
            self.intervals[tracker.constraint.name] = tracker.intervals_observed
        self.mean_cpu_utilization = recorder.mean_cpu_utilization()
        self.peak_tweet_rate = recorder.peak_effective_rate()
        self.task_seconds = job.engine.resources.task_seconds()
        self.scaling_events = len(job.scaler.events) if job.scaler else 0
        self.parallelism_ranges: Dict[str, Tuple[int, int]] = {}
        for vertex in ELASTIC_VERTICES:
            series = [p for _, p in recorder.parallelism_series(vertex)]
            if series:
                self.parallelism_ranges[vertex] = (min(series), max(series))
        self.sentiment_burst_scaleup = self._burst_scaleup(recorder)

    def _burst_scaleup(self, recorder: SeriesRecorder) -> Optional[int]:
        bursts = self.params.workload.bursts
        if not bursts:
            return None
        start, duration, _ = bursts[0]
        series = recorder.parallelism_series("Sentiment")
        before = [p for t, p in series if start - 60.0 <= t < start]
        during = [p for t, p in series if start <= t < start + duration + 30.0]
        if not before or not during:
            return None
        return max(during) - min(before)

    def report(self) -> str:
        """Fig. 8 summary, the paper's qualitative shape."""
        lines = ["Fig. 8 — TwitterSentiment with reactive scaling"]
        rows = [
            [name, f"{ratio * 100:.1f}%", self.intervals.get(name, 0)]
            for name, ratio in self.fulfillment.items()
        ]
        lines.append(format_table(["constraint", "fulfilled", "intervals"], rows))
        lines.append("")
        lines.append(f"peak tweet rate (effective): {self.peak_tweet_rate:.0f} tweets/s")
        lines.append(
            f"mean task CPU utilization: {self.mean_cpu_utilization * 100:.1f}% "
            "(paper: 55.7% — slight over-provisioning)"
        )
        for vertex, (low, high) in self.parallelism_ranges.items():
            lines.append(f"{vertex} parallelism range: {low}..{high}")
        if self.sentiment_burst_scaleup is not None:
            lines.append(
                f"Sentiment scale-up at the burst: +{self.sentiment_burst_scaleup} tasks "
                "(paper: ca. +28)"
            )
        lines.append(f"task-seconds: {self.task_seconds:.0f}")
        lines.append(f"scaling events: {self.scaling_events}")
        lines.append("")
        lines.append(
            series_panel(
                "series (time left to right):",
                [
                    ("tweets/s", [r.effective_rate for r in self.rows]),
                    ("p(HotTopics)", [r.parallelism.get("HotTopics") for r in self.rows]),
                    ("p(Filter)", [r.parallelism.get("Filter") for r in self.rows]),
                    ("p(Sentiment)", [r.parallelism.get("Sentiment") for r in self.rows]),
                    (
                        "sentiment p95 (ms)",
                        [ms(r.latency_p95.get("sentiment-e2e")) for r in self.rows],
                    ),
                    (
                        "hot-topics mean (ms)",
                        [ms(r.latency_mean.get("hot-topics-e2e")) for r in self.rows],
                    ),
                ],
            )
        )
        return "\n".join(lines)

    def series_csv(self, path: str) -> str:
        """Write the full series to CSV."""
        rows = []
        for row in self.rows:
            rows.append(
                [
                    row.time,
                    row.attempted_rate,
                    row.effective_rate,
                    row.parallelism.get("HotTopics"),
                    row.parallelism.get("Filter"),
                    row.parallelism.get("Sentiment"),
                    ms(row.latency_mean.get("sentiment-e2e")),
                    ms(row.latency_p95.get("sentiment-e2e")),
                    ms(row.latency_mean.get("hot-topics-e2e")),
                    ms(row.latency_p95.get("hot-topics-e2e")),
                    row.cpu_utilization,
                ]
            )
        return write_csv(
            path,
            [
                "time_s",
                "attempted_rate",
                "effective_rate",
                "p_hottopics",
                "p_filter",
                "p_sentiment",
                "sentiment_mean_ms",
                "sentiment_p95_ms",
                "hottopics_mean_ms",
                "hottopics_p95_ms",
                "cpu_utilization",
            ],
            rows,
        )


def run(params: Optional[Fig8Params] = None) -> Fig8Result:
    """Run the Fig. 8 experiment.

    The recorded feeds are the sink's end-to-end latency (constraint 2)
    and, for constraint 1, the latency of the merged hot-topic lists as
    they reach the Filter — a vertex the tweets pass through as well.
    """
    params = params or Fig8Params()
    engine, (job,), recorder = deploy(
        EngineConfig.nephele_adaptive(elastic=True, seed=params.seed),
        [BuiltPipeline(*build_twitter_sentiment_job(params.workload))],
        Recording(
            params.recording_interval, "TweetSource", {"sentiment-e2e": "Sink"},
            {"hot-topics-e2e": ("Filter", MergedTopics)},
        ),
    )
    engine.run(params.duration)
    engine.stop()
    return Fig8Result(params, recorder, job)
