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

CLI: ``python -m repro sweep [--grid FILE | flags] --workers N
[--resume] --out DIR``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "SweepGrid": "repro.sweep.grid",
    "WORKLOADS": "repro.workloads.scenario",
    "ScenarioSpec": "repro.workloads.scenario",
    "SweepError": "repro.sweep.orchestrator",
    "SweepStats": "repro.sweep.orchestrator",
    "run_sweep": "repro.sweep.orchestrator",
    "run_shard": "repro.sweep.shard",
    "merge_shard_results": "repro.sweep.report",
    "read_aggregate": "repro.sweep.report",
    "PoolError": "repro.sweep.pool",
    "PoolJob": "repro.sweep.pool",
    "PoolStats": "repro.sweep.pool",
    "run_pool": "repro.sweep.pool",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
