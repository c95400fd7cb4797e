"""Parallel sweep orchestration: grids of whole-job runs, crash-isolated.

The paper's evaluation (Sec. V) rests on repeating whole-job runs across
seeds, workloads and policy knobs. This package turns such a study into
one orchestrated *sweep*:

* a declarative :class:`~repro.sweep.grid.SweepGrid` (seeds × rates ×
  bounds × workloads × actuation × policies) expands into deterministic,
  ordered :class:`~repro.workloads.scenario.ScenarioSpec` shards — the
  same scenario description the ``run``/``chaos`` CLI builds, so every
  shard goes through the one :func:`repro.workloads.scenario.build`;
* :func:`~repro.sweep.orchestrator.run_sweep` executes the shards across
  a pool of worker *processes* with per-shard crash isolation — a worker
  exception or kill marks only that shard failed and it is retried up to
  ``max_retries`` times without aborting the sweep;
* every completed shard persists its deterministic ``result.json`` plus
  a :mod:`repro.obs.manifest` RunManifest bundle into a checkpoint
  directory, so an interrupted sweep resumes (``resume=True``) by
  skipping finished shards;
* shard outputs are merged deterministically — ordered by shard key,
  never by completion time — into one ``aggregate.json``
  (:mod:`repro.sweep.report`) that is byte-identical regardless of
  worker count, interruption or resume, and renders through
  :class:`repro.experiments.dashboard.SweepDashboard`.

The same crash-isolated worker pool (:mod:`repro.sweep.pool`) also
powers *partitioned single-scenario* runs: a
:class:`~repro.sweep.partition.PartitionPlan` is one ``ScenarioSpec``
plus a fixed number of slices, which :mod:`repro.sweep.partition` runs
across workers and merges byte-identically for any worker count.

CLI: ``python -m repro sweep [--grid FILE | flags] --workers N
[--resume] --out DIR`` and ``python -m repro run --partitions N``.
"""

from repro.sweep.grid import SweepGrid, WORKLOADS
from repro.sweep.orchestrator import SweepError, SweepStats, run_sweep
from repro.sweep.partition import PartitionError, PartitionPlan, run_partitioned
from repro.sweep.pool import PoolError, PoolJob, PoolStats, run_pool
from repro.sweep.report import merge_shard_results, read_aggregate
from repro.sweep.shard import run_shard
from repro.workloads.scenario import ScenarioSpec

__all__ = [
    "SweepGrid",
    "WORKLOADS",
    "ScenarioSpec",
    "SweepError",
    "SweepStats",
    "run_sweep",
    "run_shard",
    "merge_shard_results",
    "read_aggregate",
    "PartitionError",
    "PartitionPlan",
    "run_partitioned",
    "PoolError",
    "PoolJob",
    "PoolStats",
    "run_pool",
]
