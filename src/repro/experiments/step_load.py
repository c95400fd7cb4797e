"""One point of the elastic step-load PrimeTester (paper Sec. V-A).

Fig. 6 and its task-hour sweep, the policy comparison, the sensitivity
grid and the ablations all run the same job: the PrimeTester under a
step load, Nephele-20ms adaptive output batching, reactive scaling on
the scaled cluster. They differ in the load, the constraint bound, the
policy and one or two control parameters. :func:`run_point` is that run
and :class:`Point` its outcome; :class:`StepLoadParams` holds what the
four harnesses' params share, including the one quick load.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import List, NamedTuple, Optional, Tuple

from repro.core.policy import DEFAULT_POLICY, PolicySpec
from repro.engine.engine import EngineConfig
from repro.experiments.recording import SeriesRecorder
from repro.workloads.primetester import (
    QUICK_STEP_LOAD,
    SCALED_CLUSTER,
    STEP_LOAD,
    PrimeTesterParams,
    run_primetester,
)

_ENGINE_FIELDS = frozenset(f.name for f in fields(EngineConfig))


@dataclass
class StepLoadParams:
    """The job, its constraint and the seed of an elastic step-load run."""

    workload: PrimeTesterParams = field(default_factory=lambda: replace(STEP_LOAD))
    #: the latency constraint (paper: 20 ms)
    constraint_bound: float = 0.020
    seed: int = 11

    def quick(self) -> "StepLoadParams":
        """The reduced variant, ``--quick``: the quick step load."""
        return replace(self, workload=replace(QUICK_STEP_LOAD))


class Point(NamedTuple):
    """What a step-load table reports of one run."""

    #: fraction of adjustment intervals in which the constraint held
    fulfillment: float
    task_seconds: float
    scaling_events: int
    #: the highest PrimeTester parallelism the scaler ever provisioned
    max_parallelism: int

    def cells(self) -> List[object]:
        """The printed cells every step-load table shares (:data:`HEADERS`)."""
        return [f"{self.fulfillment * 100:.1f}%", round(self.task_seconds), self.scaling_events]

    def csv_cells(self) -> List[object]:
        """The CSV cells every step-load table shares (:data:`CSV_HEADERS`)."""
        return [self.fulfillment, self.task_seconds, self.scaling_events]


#: the column headers of :meth:`Point.cells` and :meth:`Point.csv_cells`
HEADERS = ("fulfilled", "task-seconds", "scaling events")
CSV_HEADERS = Point._fields[:3]


def run_point(
    params: StepLoadParams,
    policy: str = DEFAULT_POLICY,
    bound: Optional[float] = None,
    recording_interval: Optional[float] = None,
    **overrides,
) -> Tuple[Point, Optional[SeriesRecorder]]:
    """Run the elastic step-load job once: ``(point, recorder)``.

    An override named like an :class:`EngineConfig` field goes into the
    config; any other is a knob of ``policy``. A knob the policy does not
    have is a ``ValueError``, raised before anything runs. ``bound``
    defaults to ``params.constraint_bound``; ``recording_interval``
    attaches a series recorder (None = no recorder).
    """
    spec = PolicySpec(
        policy, {k: v for k, v in overrides.items() if k not in _ENGINE_FIELDS}
    ).validate()
    config = EngineConfig.nephele_adaptive(
        elastic=True, seed=params.seed, **SCALED_CLUSTER,
        **{k: v for k, v in overrides.items() if k in _ENGINE_FIELDS},
    )
    job, recorder = run_primetester(
        params.workload, config,
        bound=params.constraint_bound if bound is None else bound,
        policy=spec,
        recording_interval=recording_interval,
    )
    parallelism = peak = job.job_graph.vertex("PrimeTester").parallelism
    for event in job.scaler.events:
        parallelism += event.applied.get("PrimeTester", 0)
        peak = max(peak, parallelism)
    point = Point(
        job.trackers[0].fulfillment_ratio,
        job.engine.resources.task_seconds(),
        len(job.scaler.events),
        peak,
    )
    return point, recorder
