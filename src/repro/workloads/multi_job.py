"""The shared-cluster benchmark: two elastic jobs on one small pool.

The paper's closing argument is that latency-driven elasticity makes
peak provisioning unnecessary — which only pays off when several jobs
share one cluster. This module is that scenario, deterministic and
measured: two structurally identical pipelines (``alpha`` and ``beta``)
with *anti-phased* load peaks plus one *coincident* peak run against a
pool deliberately too small for both peak demands at once
(3 workers x 4 slots = 12 slots vs ~20 slots of combined peak demand).

Under weighted fair-share arbitration (``alpha`` weight 3, ``beta``
weight 1) the run exercises every admission outcome:

* ``beta`` peaks first and grows past its fair share (3 slots of 12);
* when ``alpha`` ramps towards its own peak while still under *its*
  share (9 slots), arbitration preempts ``beta``'s reducible tasks;
* requests the pool cannot cover even after preemption are denied and
  retried on later scaler rounds (``admission-denied`` trace branch).

:func:`collect_shared_cluster_result` distills a finished run into a
deterministic result dict with per-job constraint fulfillment, Jain's
fairness index over those fulfillments, and the cluster's
admission/preemption counters — the shape the ``multi_job`` sweep
workload and the ``repro run --shared-cluster`` CLI report. The scenario
is registered as the ``multi_job`` workload of
:mod:`repro.workloads.scenario`; its rate / bound / duration / seed /
actuation / policy come from the :class:`ScenarioSpec`, the pool and its
arbitration from the knobs below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.builder import PipelineBuilder
from repro.engine.admission import jain_fairness
from repro.simulation.randomness import Gamma
from repro.workloads.rates import PiecewiseRate

#: knobs of the ``multi_job`` workload and their canonical values — all
#: four configure the engine (``spec.rate`` is the per-job *peak* source
#: rate; off-peak is ``rate / 8``)
SHARED_CLUSTER_KNOBS: Dict[str, object] = {
    # pool size — deliberately too small for both peaks at once
    "worker_pool": 3,
    "slots_per_worker": 4,
    # arbitration policy (fair-share is the canonical scenario)
    "admission": "fair-share",
    # task placement strategy
    "placement": "pack",
}

#: fair-share weights (alpha gets the larger share; the 3:1 split puts
#: beta over its 3-slot share whenever it exceeds its minimum footprint,
#: so alpha's contended ramp-up demonstrably preempts)
ALPHA_WEIGHT = 3.0
BETA_WEIGHT = 1.0


def _job_pipeline(
    name: str, segments: List[Tuple[float, float]], bound: float, weight: float
):
    """One linear elastic pipeline with a piecewise load profile.

    Both jobs deliberately reuse the same vertex names ("source",
    "worker", "sink") — exercising the engine's job-qualified metric
    keys instead of silently mixing rows.
    """
    return (
        PipelineBuilder(name)
        .source(lambda now, rng: rng.random(), rate=PiecewiseRate(segments))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(2, 1, 8))
        .sink()
        .constrain(bound=bound, name=f"{name}-e2e")
        .share(weight=weight)
        .build()
    )


def shared_cluster_pipelines(spec):
    """The two pipelines of the canonical scenario, ``[alpha, beta]``.

    ``beta`` peaks early (and overshoots its fair share), ``alpha``
    peaks late; both share a coincident peak window around 55-70 % of
    the run where combined demand exceeds the pool.
    """
    d = spec.duration
    high = spec.rate
    low = spec.rate / 8.0
    alpha = _job_pipeline(
        "alpha",
        [(0.0, low), (0.50 * d, high), (0.85 * d, low)],
        spec.bound,
        ALPHA_WEIGHT,
    )
    beta = _job_pipeline(
        "beta",
        [(0.0, low), (0.10 * d, high), (0.45 * d, low), (0.55 * d, high), (0.70 * d, low)],
        spec.bound,
        BETA_WEIGHT,
    )
    return [alpha, beta]


def _job_result(job, account: Dict[str, object]) -> Dict[str, object]:
    trackers = job.trackers
    fulfillment = None
    violations = 0
    if trackers:
        ratios = [t.fulfillment_ratio for t in trackers if t.fulfillment_ratio is not None]
        if ratios:
            fulfillment = sum(ratios) / len(ratios)
        violations = sum(t.violations for t in trackers)
    denial_records = 0
    if job.trace is not None:
        denial_records = job.trace.branches().get("admission-denied", 0)
    return {
        "job": job.job_graph.name,
        "fulfillment": fulfillment,
        "violations": violations,
        "final_parallelism": {
            name: rv.parallelism for name, rv in job.runtime.vertices.items()
        },
        "preempted_tasks": account["preemptions_suffered"],
        "trace_denials": denial_records,
        "account": account,
    }


def collect_shared_cluster_result(engine, jobs) -> Dict[str, object]:
    """Distill a finished shared-cluster run: per-job results, fairness, cluster.

    Call it before ``engine.stop()``: teardown scales every vertex to
    zero, which would wipe the ``final_parallelism`` snapshot.
    """
    resources = engine.resources
    accounts = resources.job_summaries()
    per_job = [
        _job_result(job, accounts[resources.account(job.job_id).name])
        for job in jobs
    ]
    fulfillments = [j["fulfillment"] for j in per_job]
    return {
        "jobs": per_job,
        "fairness": jain_fairness([f for f in fulfillments if f is not None]),
        "cluster": {
            "total_slots": resources.total_slots,
            "admission_denials": resources.admission_denials,
            "preempted_tasks": resources.preempted_tasks,
            "task_hours": resources.task_hours(),
            "worker_hours": resources.worker_hours(),
        },
    }


__all__ = [
    "ALPHA_WEIGHT",
    "BETA_WEIGHT",
    "SHARED_CLUSTER_KNOBS",
    "shared_cluster_pipelines",
    "collect_shared_cluster_result",
]
