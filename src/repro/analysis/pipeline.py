"""Analytic end-to-end latency prediction for a linear pipeline.

Combines per-stage queue waits (Allen–Cunneen), service times and
shipping/batching delays into an end-to-end mean-latency estimate — the
closed-form counterpart of what the simulated engine measures. Used for
capacity planning and as an independent cross-check of experiment
results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.queueing import INFINITY, allen_cunneen_waiting_time


class PipelineStage:
    """One data-parallel stage of a linear pipeline.

    Parameters
    ----------
    name:
        Stage label (for reports).
    service_mean / service_cv:
        Per-item service time distribution parameters.
    parallelism:
        Number of data-parallel tasks; the total input rate is split
        evenly across them (effective round-robin load balancing).
    arrival_cv:
        Coefficient of variation of the per-task arrival process.
    selectivity:
        Output items per input item (e.g. 0.4 for a filter passing 40 %);
        scales the downstream stages' arrival rate.
    """

    def __init__(
        self,
        name: str,
        service_mean: float,
        service_cv: float = 1.0,
        parallelism: int = 1,
        arrival_cv: float = 1.0,
        selectivity: float = 1.0,
    ) -> None:
        if service_mean < 0 or service_cv < 0 or arrival_cv < 0:
            raise ValueError(f"stage {name!r}: parameters must be >= 0")
        if parallelism < 1:
            raise ValueError(f"stage {name!r}: parallelism must be >= 1")
        if selectivity < 0:
            raise ValueError(f"stage {name!r}: selectivity must be >= 0")
        self.name = name
        self.service_mean = service_mean
        self.service_cv = service_cv
        self.parallelism = parallelism
        self.arrival_cv = arrival_cv
        self.selectivity = selectivity

    def waiting_time(self, total_rate: float) -> float:
        """Mean per-item queue wait at this stage for a total input rate.

        Models the stage as ``parallelism`` independent single-server
        stations each receiving ``total_rate / parallelism`` (the same
        view the paper's latency model takes), rather than one shared
        M/M/c queue.
        """
        per_task = total_rate / self.parallelism
        return allen_cunneen_waiting_time(
            per_task, self.service_mean, 1, self.arrival_cv, self.service_cv
        )

    def __repr__(self) -> str:
        return (
            f"PipelineStage({self.name!r}, S={self.service_mean}, "
            f"p={self.parallelism})"
        )


def predict_pipeline_latency(
    stages: Sequence[PipelineStage],
    input_rate: float,
    hop_latency: float = 0.0005,
    batching_delay: float = 0.0,
) -> Optional[float]:
    """Analytic mean end-to-end latency of a linear pipeline.

    Sums, per stage: queue wait + service time; plus per hop: network
    latency and a mean output-batching delay. Returns ``None`` when any
    stage is saturated (no steady state exists).
    """
    if input_rate < 0:
        raise ValueError("input_rate must be >= 0")
    total = 0.0
    rate = input_rate
    hops = len(stages) + 0  # one inbound hop per stage
    for stage in stages:
        wait = stage.waiting_time(rate)
        if wait == INFINITY:
            return None
        total += wait + stage.service_mean
        rate *= stage.selectivity
    total += hops * (hop_latency + batching_delay)
    return total
