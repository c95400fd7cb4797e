"""Partitioned single-scenario simulation across worker processes.

A :class:`PartitionPlan` is a
:class:`~repro.workloads.scenario.ScenarioSpec` plus a *fixed* number of
``slices`` — slice ``i`` is the same spec with seed ``seed + i`` and
``rate / slices`` of the source load — and :func:`run_partitioned`
executes the slices on the crash-isolated worker pool
(:mod:`repro.sweep.pool`), then merges the slice artifacts strictly by
slice index:

* ``partitions.json`` — ordered slice results plus deterministic totals
  (summed events, per-constraint fulfillment), like a sweep's
  ``aggregate.json``;
* ``metrics.jsonl`` / ``trace.jsonl`` — slice streams concatenated in
  index order;
* ``manifest.json`` — a merged manifest embedding every slice manifest.

Because the slice set is fixed and the merge is ordered by index (never
by completion time), the merged artifacts are **byte-identical for any
worker count** — the determinism wall compares 1-, 2- and 4-worker runs
byte for byte. Wall-clock numbers live only in ``partition_stats.json``,
which is excluded from those comparisons. Any slice that still fails
after ``max_retries`` aborts the merge with :class:`PartitionError`
rather than producing a partial bundle.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace
from typing import Callable, Dict, List, Optional

from repro.experiments.report import write_json
from repro.obs.manifest import MANIFEST_FILE, METRICS_FILE, TRACE_FILE, git_provenance
from repro.sweep.pool import PoolError, PoolJob, run_pool
from repro.sweep.shard import load_shard_result, shard_process_entry
from repro.workloads.scenario import SINGLE_JOB_WORKLOADS, ScenarioSpec

#: partitions.json layout version; bump on incompatible change
PARTITION_SCHEMA_VERSION = 1

#: merged slice-results file (the partition analogue of aggregate.json)
PARTITIONS_FILE = "partitions.json"

#: wall-clock pool accounting (excluded from byte-identity comparisons)
PARTITION_STATS_FILE = "partition_stats.json"

#: subdirectory of the output dir holding per-slice checkpoints
SLICES_DIR = "slices"


class PartitionError(RuntimeError):
    """A partitioned run could not start or complete (no partial merge)."""


def slice_name(index: int) -> str:
    """Filesystem-safe slice identity; also the merge order."""
    return f"slice-{index:02d}"


class PartitionPlan:
    """A scenario split into ``slices`` independent slice jobs.

    The slice set depends only on the plan — never on the worker count —
    so merged artifacts are byte-identical for any ``--partitions N``.
    Slice ``i`` gets seed ``seed + i`` and ``rate / slices`` of the load.
    """

    __slots__ = ("spec", "slices")

    def __init__(self, spec: ScenarioSpec, slices: int = 4) -> None:
        if spec.workload not in SINGLE_JOB_WORKLOADS:
            raise PartitionError(
                f"cannot slice workload {spec.workload!r} "
                f"(choose from {', '.join(SINGLE_JOB_WORKLOADS)})"
            )
        if not isinstance(slices, int) or isinstance(slices, bool) or slices < 1:
            raise PartitionError(f"slices must be a positive int, got {slices!r}")
        if spec.rate <= 0:
            raise PartitionError(f"rate must be positive, got {spec.rate!r}")
        self.spec = spec
        self.slices = slices

    def describe(self) -> Dict[str, object]:
        """The deterministic plan identity recorded in merged artifacts."""
        return {
            "scenario": self.spec.workload,
            "seed": self.spec.seed,
            "rate": self.spec.rate,
            "bound": self.spec.bound,
            "duration": self.spec.duration,
            "policy": self.spec.policy,
            "slices": self.slices,
        }

    def specs(self) -> List[ScenarioSpec]:
        """The fixed slice jobs, in slice-index order."""
        return [
            replace(
                self.spec,
                seed=self.spec.seed + index,
                rate=self.spec.rate / self.slices,
            )
            for index in range(self.slices)
        ]


def _merge_totals(results: List[Dict[str, object]]) -> Dict[str, object]:
    """Deterministic whole-run totals over the ordered slice results."""
    fired = sum(int(result.get("fired_events", 0)) for result in results)
    virtual = max((float(result["virtual_time_s"]) for result in results), default=0.0)
    constraints: Dict[str, Dict[str, float]] = {}
    for result in results:
        for entry in result.get("constraints") or []:
            name = str(entry["name"])
            bucket = constraints.setdefault(
                name, {"bound": entry["bound"], "violations": 0, "intervals": 0}
            )
            bucket["violations"] += entry["violations"]
            bucket["intervals"] += entry["intervals"]
    for bucket in constraints.values():
        intervals = bucket["intervals"]
        bucket["fulfillment_ratio"] = (
            1.0 - bucket["violations"] / intervals if intervals else 1.0
        )
    return {
        "fired_events": fired,
        "virtual_time_s": virtual,
        "constraints": constraints,
    }


def _concatenate(slice_dirs: List[str], filename: str, out_path: str) -> None:
    """Concatenate one artifact stream across slices, in index order."""
    with open(out_path, "w", encoding="utf-8") as sink:
        for slice_dir in slice_dirs:
            source_path = os.path.join(slice_dir, filename)
            if not os.path.exists(source_path):
                continue
            with open(source_path, "r", encoding="utf-8") as source:
                shutil.copyfileobj(source, sink)


def run_partitioned(
    plan: PartitionPlan,
    out: str,
    partitions: int = 2,
    max_retries: int = 2,
    progress: Optional[Callable[[str], None]] = None,
    fail_once_marker: Optional[str] = None,
) -> Dict[str, object]:
    """Run ``plan`` across ``partitions`` workers and merge into ``out``.

    Returns the merged ``partitions.json`` payload. Raises
    :class:`PartitionError` when any slice fails after retries — nothing
    is merged in that case, so ``out`` never holds a partial bundle.
    ``fail_once_marker`` is the crash-isolation test hook: slice 0's
    first attempt creates the marker file and dies (see
    :attr:`repro.workloads.scenario.ScenarioSpec.fail_once_marker`).
    """
    say = progress if progress is not None else (lambda message: None)
    specs = plan.specs()
    slices_root = os.path.join(out, SLICES_DIR)
    os.makedirs(slices_root, exist_ok=True)

    slice_dirs = [os.path.join(slices_root, slice_name(i)) for i in range(plan.slices)]
    git = git_provenance() or {}  # read once for all slices (see run_sweep)
    spec_by_name: Dict[str, ScenarioSpec] = {}
    dir_by_name: Dict[str, str] = {}
    jobs: List[PoolJob] = []
    for index, spec in enumerate(specs):
        if index == 0 and fail_once_marker is not None:
            spec = replace(spec, fail_once_marker=fail_once_marker)
        name = slice_name(index)
        spec_by_name[name] = spec
        dir_by_name[name] = slice_dirs[index]
        jobs.append(PoolJob(name, shard_process_entry, (spec.to_dict(), slice_dirs[index], git)))

    def _verify(job: PoolJob) -> bool:
        return load_shard_result(dir_by_name[job.key], spec_by_name[job.key]) is not None

    try:
        stats, outcomes = run_pool(
            jobs,
            workers=partitions,
            max_retries=max_retries,
            verify=_verify,
            progress=say,
            name_prefix="part",
        )
    except PoolError as exc:
        raise PartitionError(str(exc)) from exc

    failed = sorted(outcome.key for outcome in outcomes if outcome.status != "done")
    if failed:
        raise PartitionError(
            f"{len(failed)}/{plan.slices} slices failed after retries "
            f"({', '.join(failed)}); refusing to merge a partial run"
        )

    # deterministic merge, strictly by slice index (never completion time)
    results: List[Dict[str, object]] = []
    for index, spec in enumerate(specs):
        result = load_shard_result(slice_dirs[index], spec)
        if result is None:  # pragma: no cover - verify() already held
            raise PartitionError(f"{slice_name(index)} checkpoint vanished before merge")
        results.append(result)

    merged: Dict[str, object] = {
        "partition_schema": PARTITION_SCHEMA_VERSION,
        "plan": plan.describe(),
        "totals": _merge_totals(results),
        "slices": results,
    }
    write_json(os.path.join(out, PARTITIONS_FILE), merged)
    _concatenate(slice_dirs, METRICS_FILE, os.path.join(out, METRICS_FILE))
    _concatenate(slice_dirs, TRACE_FILE, os.path.join(out, TRACE_FILE))

    manifests = []
    for index in range(plan.slices):
        manifest_path = os.path.join(slice_dirs[index], MANIFEST_FILE)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifests.append(json.load(handle))
        except (OSError, ValueError):
            manifests.append(None)
    write_json(
        os.path.join(out, MANIFEST_FILE),
        {
            "partition_schema": PARTITION_SCHEMA_VERSION,
            "plan": plan.describe(),
            "slices": manifests,
        },
    )

    # wall-clock accounting lives apart so byte-identity checks can skip it
    write_json(
        os.path.join(out, PARTITION_STATS_FILE),
        {
            "partitions": partitions,
            "slices": stats.jobs,
            "done": stats.done,
            "retried": stats.retried,
            "wall_s": stats.wall_s,
            "serial_estimate_s": stats.serial_estimate_s,
            "speedup": stats.speedup,
            "events_per_sec": (
                merged["totals"]["fired_events"] / stats.wall_s
                if stats.wall_s > 0 else 0.0
            ),
        },
    )
    say(
        f"{stats.done}/{stats.jobs} slices done with {partitions} workers in "
        f"{stats.wall_s:.1f}s — {stats.speedup:.2f}x vs. serial estimate"
    )
    return merged
