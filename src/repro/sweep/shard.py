"""One sweep shard: a single deterministic whole-scenario run.

A shard *is* a :class:`~repro.workloads.scenario.ScenarioSpec` — seed,
source rate, latency bound, workload, actuation supervision, duration
and policy pin everything a worker process needs to execute one grid
point. :func:`run_shard` builds the scenario through the one
:func:`~repro.workloads.scenario.build`, runs it, and distills the
*deterministic* result dict (no wall clock, no object ids);
:func:`execute_shard` additionally persists the checkpoint:
``result.json`` (written atomically) next to the shard's observability
bundle exported through :func:`repro.obs.manifest.export_run` with sweep
provenance merged into the manifest. :func:`shard_process_entry` is the
picklable subprocess entry point the orchestrator spawns.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional

# imported here, not in the functions below: a forked shard imports nothing
# (see the note at the top of repro.workloads.scenario)
from repro.experiments.report import write_json
from repro.obs.manifest import export_run
from repro.workloads.scenario import (
    SHARD_SCHEMA_VERSION,
    ScenarioSpec,
    build,
    summarize,
)

#: checkpoint file written when a shard completed successfully
RESULT_FILE = "result.json"

#: subprocess exit code of the deliberate fail-once test hook
FAIL_ONCE_EXIT_CODE = 23


def run_shard(spec: ScenarioSpec, export_dir: Optional[str] = None) -> Dict[str, object]:
    """Run one shard to completion; returns its deterministic result.

    When ``export_dir`` is given, the run's observability bundle
    (manifest/metrics/trace, wall time pinned) is exported there with the
    shard's provenance merged into the manifest. ``multi_job`` shards
    export no bundle — two jobs cannot share one bundle directory, and
    the sweep's checkpoint/merge path only ever reads ``result.json``.
    """
    engine, jobs, recorder = build(spec, export_dir=export_dir)
    engine.run(spec.duration)
    result = summarize(spec, engine, jobs, recorder)
    if engine.observability is not None:
        extra = {"sweep": {"shard": spec.key, "params": spec.params()}}
        export_run(jobs[0], export_dir, extra=extra)
    return result


def execute_shard(spec: ScenarioSpec, shard_dir: str) -> Dict[str, object]:
    """Run the shard and persist its checkpoint into ``shard_dir``.

    ``result.json`` is written last and atomically (tmp + rename), so its
    presence marks a fully completed shard — a crash mid-run can never
    leave a half-written checkpoint behind.
    """
    os.makedirs(shard_dir, exist_ok=True)
    result = run_shard(spec, export_dir=shard_dir)
    write_json(os.path.join(shard_dir, RESULT_FILE), result)
    return result


def load_shard_result(
    shard_dir: str, spec: Optional[ScenarioSpec] = None
) -> Optional[Dict[str, object]]:
    """A shard's checkpointed result, or None when absent/invalid.

    With ``spec`` given, a checkpoint whose recorded parameters differ
    (the grid changed under the checkpoint directory) is rejected so the
    shard re-runs instead of polluting the merge.
    """
    path = os.path.join(shard_dir, RESULT_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(result, dict):
        return None
    if result.get("shard_schema") != SHARD_SCHEMA_VERSION:
        return None
    if spec is not None:
        if result.get("key") != spec.key or result.get("params") != spec.params():
            return None
    return result


def shard_process_entry(spec_dict: Dict[str, object], shard_dir: str) -> None:
    """Worker-process entry point (crash-isolated by the orchestrator)."""
    spec = ScenarioSpec.from_dict(spec_dict)
    if spec.fail_once_marker is not None and not os.path.exists(spec.fail_once_marker):
        with open(spec.fail_once_marker, "w", encoding="utf-8") as handle:
            handle.write(spec.key + "\n")
        os._exit(FAIL_ONCE_EXIT_CODE)
    try:
        execute_shard(spec, shard_dir)
    except Exception:  # noqa: BLE001 - the exit code is the signal
        import traceback

        traceback.print_exc(file=sys.stderr)
        raise SystemExit(1)
