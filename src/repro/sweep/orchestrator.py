"""The sweep orchestrator: crash-isolated shard execution with resume.

Every shard runs in its *own* worker process (via
:mod:`repro.sweep.pool`), so a crashed or killed worker (non-zero exit,
signal, ``os._exit``) fails only that shard; the orchestrator retries it
up to ``max_retries`` times and carries on. The filesystem is the only
communication channel — a shard is complete iff its atomically written
``result.json`` checkpoint exists — which is what makes ``resume=True``
trivially correct: finished shards are skipped, everything else re-runs,
and the merged aggregate comes out byte-identical either way.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional

from repro.sweep.grid import SweepGrid
from repro.sweep.pool import PoolError, PoolJob, run_pool
from repro.sweep.report import (
    AGGREGATE_FILE,
    GRID_FILE,
    STATS_FILE,
    merge_shard_results,
    write_aggregate,
)
from repro.sweep.shard import load_shard_result, shard_process_entry
from repro.workloads.scenario import ScenarioSpec

#: subdirectory of the sweep output dir holding per-shard checkpoints
SHARDS_DIR = "shards"


class SweepError(RuntimeError):
    """A sweep could not start or finish (misuse or exhausted retries)."""


class ShardOutcome:
    """How one shard ended: done / skipped (resume) / failed."""

    __slots__ = ("key", "status", "attempts", "elapsed_s")

    def __init__(self, key: str, status: str, attempts: int, elapsed_s: float) -> None:
        self.key = key
        self.status = status
        self.attempts = attempts
        self.elapsed_s = elapsed_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardOutcome({self.key}: {self.status}, {self.attempts} attempts)"


class SweepStats:
    """Sweep-level metrics (done/failed/retried, speedup vs. serial)."""

    def __init__(self) -> None:
        self.shards = 0
        self.done = 0
        self.skipped = 0
        self.failed = 0
        self.retried = 0
        self.workers = 0
        self.wall_s = 0.0
        #: sum of per-shard wall times this run — what a serial run of
        #: the same (non-skipped) shards would roughly have taken
        self.serial_estimate_s = 0.0

    @property
    def speedup(self) -> float:
        """Wall-clock speedup vs. running the executed shards serially."""
        if self.wall_s <= 0.0:
            return 1.0
        return self.serial_estimate_s / self.wall_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "done": self.done,
            "skipped": self.skipped,
            "failed": self.failed,
            "retried": self.retried,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "serial_estimate_s": self.serial_estimate_s,
            "speedup": self.speedup,
        }

    def describe(self) -> str:
        return (
            f"{self.done}/{self.shards} shards done "
            f"({self.skipped} resumed, {self.retried} retries, "
            f"{self.failed} failed) with {self.workers} workers in "
            f"{self.wall_s:.1f}s — {self.speedup:.2f}x vs. serial estimate "
            f"({self.serial_estimate_s:.1f}s)"
        )


class SweepResult:
    """Everything a finished sweep produced."""

    def __init__(
        self,
        aggregate: Dict[str, object],
        aggregate_path: str,
        stats: SweepStats,
        outcomes: List[ShardOutcome],
    ) -> None:
        self.aggregate = aggregate
        self.aggregate_path = aggregate_path
        self.stats = stats
        self.outcomes = outcomes


def run_sweep(
    grid: SweepGrid,
    out: str,
    workers: int = 2,
    resume: bool = False,
    max_retries: int = 2,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Execute ``grid`` into checkpoint directory ``out`` and merge.

    ``workers`` worker processes run concurrently (1 = serial, same
    results). With ``resume=True`` shards whose valid checkpoint already
    exists are skipped; without it an already-populated checkpoint
    directory is refused rather than silently mixed into. A shard whose
    worker process dies is retried up to ``max_retries`` times; shards
    that still fail are reported in the stats and left out of the
    aggregate. Raises :class:`SweepError` on misuse (bad worker count,
    grid mismatch on resume, pre-existing checkpoints without resume).
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise SweepError(f"workers must be a positive int, got {workers!r}")
    if not isinstance(max_retries, int) or isinstance(max_retries, bool) or max_retries < 0:
        raise SweepError(f"max_retries must be a non-negative int, got {max_retries!r}")
    say = progress if progress is not None else (lambda message: None)
    from repro.experiments.report import write_json

    specs = grid.expand()
    shards_root = os.path.join(out, SHARDS_DIR)
    grid_path = os.path.join(out, GRID_FILE)
    description = grid.describe()
    if os.path.isdir(shards_root) and os.listdir(shards_root):
        if not resume:
            raise SweepError(
                f"{shards_root} already holds shard checkpoints; pass "
                "resume=True (--resume) to continue it or choose a fresh --out"
            )
        if os.path.exists(grid_path):
            from repro.sweep.grid import SweepGrid as _Grid

            try:
                existing = _Grid.from_file(grid_path).describe()
            except (OSError, TypeError, ValueError) as exc:
                raise SweepError(f"cannot read {grid_path}: {exc}") from None
            if existing != description:
                raise SweepError(
                    f"grid mismatch: {grid_path} describes a different sweep "
                    "than the requested grid — use a fresh --out"
                )
    os.makedirs(shards_root, exist_ok=True)
    write_json(grid_path, description)

    stats = SweepStats()
    stats.shards = len(specs)
    stats.workers = workers
    outcomes: List[ShardOutcome] = []
    results: List[Dict[str, object]] = []

    # resume: collect finished shards, queue the rest in key order
    spec_by_key: Dict[str, ScenarioSpec] = {}
    jobs: List[PoolJob] = []
    for spec in specs:
        shard_dir = os.path.join(shards_root, spec.key)
        checkpoint = load_shard_result(shard_dir, spec) if resume else None
        if checkpoint is not None:
            stats.skipped += 1
            stats.done += 1
            results.append(checkpoint)
            outcomes.append(ShardOutcome(spec.key, "skipped", 0, 0.0))
            say(f"skip {spec.key} (checkpoint)")
        else:
            spec_by_key[spec.key] = spec
            jobs.append(PoolJob(spec.key, shard_process_entry, (spec.to_dict(), shard_dir)))

    def _verify(job: PoolJob) -> bool:
        spec = spec_by_key[job.key]
        shard_dir = os.path.join(shards_root, spec.key)
        return load_shard_result(shard_dir, spec) is not None

    try:
        pool_stats, job_outcomes = run_pool(
            jobs,
            workers=workers,
            max_retries=max_retries,
            verify=_verify,
            progress=say,
        )
    except PoolError as exc:
        raise SweepError(str(exc)) from exc
    stats.done += pool_stats.done
    stats.failed = pool_stats.failed
    stats.retried = pool_stats.retried
    stats.wall_s = pool_stats.wall_s
    stats.serial_estimate_s = pool_stats.serial_estimate_s
    for outcome in job_outcomes:
        outcomes.append(
            ShardOutcome(outcome.key, outcome.status, outcome.attempts, outcome.elapsed_s)
        )
        if outcome.status == "done":
            spec = spec_by_key[outcome.key]
            checkpoint = load_shard_result(os.path.join(shards_root, spec.key), spec)
            if checkpoint is not None:
                results.append(checkpoint)

    # deterministic merge (ordered by shard key, not completion time)
    aggregate = merge_shard_results(description, results)
    aggregate_path = write_aggregate(os.path.join(out, AGGREGATE_FILE), aggregate)
    write_json(os.path.join(out, STATS_FILE), stats.to_dict())
    say(stats.describe())
    return SweepResult(aggregate, aggregate_path, stats, outcomes)
