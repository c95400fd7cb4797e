"""Run manifests: one ``manifest.json`` per engine run.

The manifest pins everything needed to reproduce and audit a run — the
seed, a stable hash of the job graph, the constraint set, the fault
plan, virtual/wall duration, the final parallelism and the scaler's
activity counters — and names the sibling ``metrics.jsonl`` /
``trace.jsonl`` exports. It is the artifact future perf PRs diff against
to prove a speedup changed nothing behavioral.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

#: bump when the manifest layout changes incompatibly
MANIFEST_SCHEMA_VERSION = 1

#: canonical export file names
MANIFEST_FILE = "manifest.json"
METRICS_FILE = "metrics.jsonl"
TRACE_FILE = "trace.jsonl"


def export_paths(directory: str) -> Dict[str, str]:
    """The path of each file an export directory may hold, by kind."""
    files = {"trace": TRACE_FILE, "manifest": MANIFEST_FILE, "metrics": METRICS_FILE}
    return {kind: os.path.join(directory, name) for kind, name in files.items()}


def read_export(directory: str):
    """``(trace, manifest)`` of an export directory; ``None`` if absent.

    A present file that is unreadable, not JSON or not schema-valid (read
    strictly) raises ``ValueError("cannot read PATH: reason")``.
    """
    from repro.obs.trace import DecisionTrace

    paths = export_paths(directory)
    loaded = []
    for path, read in ((paths["trace"], DecisionTrace.read_jsonl),
                       (paths["manifest"], RunManifest.read)):
        try:
            loaded.append(read(path) if os.path.exists(path) else None)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read {path}: {exc}") from None
    return tuple(loaded)


def check_export(directory: str) -> Tuple[List[str], List[str]]:
    """Schema-check an export directory: ``(checked paths, errors)``.

    The trace and the manifest must be there, ``metrics.jsonl`` may be.
    """
    from repro.obs.sampling import validate_metrics_file
    from repro.obs.trace import validate_trace_file

    def validate_manifest(path: str) -> List[str]:
        try:
            RunManifest.read(path)
        except (OSError, ValueError) as exc:
            return [str(exc)]
        return []

    paths = export_paths(directory)
    checked: List[str] = []
    errors: List[str] = []
    for kind, validate in (("trace", validate_trace_file),
                           ("manifest", validate_manifest),
                           ("metrics", validate_metrics_file)):
        path = paths[kind]
        if os.path.exists(path):
            checked.append(path)
            errors.extend(f"{path}: {error}" for error in validate(path))
        elif kind != "metrics":
            errors.append(f"missing {path}")
    return checked, errors


def graph_hash(graph) -> str:
    """Stable short hash of a job graph's structure.

    Covers vertex names, parallelism bounds and elasticity plus edge
    wiring patterns — everything the scaler's behavior depends on. UDF
    code is deliberately excluded (callables have no stable identity),
    so the hash identifies the *shape* of the job, not its payload.
    """
    structure = {
        "name": graph.name,
        "vertices": sorted(
            (
                v.name,
                v.parallelism,
                v.min_parallelism,
                v.max_parallelism,
                bool(v.elastic),
            )
            for v in graph.vertices.values()
        ),
        "edges": sorted(
            (e.source.name, e.target.name, e.pattern) for e in graph.edges
        ),
    }
    digest = hashlib.sha256(
        json.dumps(structure, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:16]


def _fault_plan_dict(plan) -> Optional[Dict[str, object]]:
    if plan is None or not plan:
        return None
    events: List[Dict[str, object]] = []
    for spec in plan.events:
        event: Dict[str, object] = {"kind": type(spec).__name__, "at": spec.at}
        vertex = getattr(spec, "vertex", None)
        if vertex is not None:
            event["vertex"] = vertex
        events.append(event)
    return {"name": plan.name, "seed": plan.seed, "events": events}


class RunManifest:
    """The manifest of one engine run (JSON-dict backed)."""

    def __init__(self, data: Dict[str, object]) -> None:
        self.data = data

    def __getitem__(self, key: str) -> object:
        return self.data[key]

    def get(self, key: str, default=None):
        """Dict-style access with default."""
        return self.data.get(key, default)

    def to_json(self) -> str:
        """Pretty-printed strict JSON."""
        return json.dumps(self.data, indent=2, sort_keys=False, allow_nan=False)

    def write(self, path: str) -> str:
        """Write the manifest atomically; returns the path.

        Routes through the canonical atomic text writer, so a crash
        mid-export can never leave a half-written manifest behind. The
        byte layout is unchanged from the non-atomic writer.
        """
        from repro.experiments.report import write_text

        return write_text(path, self.to_json() + "\n")

    @staticmethod
    def read(path: str) -> "RunManifest":
        """Load a manifest written by :meth:`write`."""
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {schema!r} "
                f"(expected {MANIFEST_SCHEMA_VERSION})"
            )
        return RunManifest(data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunManifest(job={self.data.get('job')!r}, seed={self.data.get('seed')})"


def build_manifest(
    job,
    wall_time_s: Optional[float] = None,
    extra: Optional[Dict[str, object]] = None,
) -> RunManifest:
    """Assemble the manifest of a deployed job's run so far.

    ``extra`` merges additional provenance sections (e.g. the sweep
    orchestrator's ``{"sweep": {...}}`` shard identity) into the
    manifest; it must not collide with the built-in keys.
    """
    engine = job.engine
    config = engine.config
    constraints = [
        {
            "name": c.name,
            "bound": c.bound,
            "window": c.window,
            "sequence": list(c.sequence.vertex_names()),
        }
        for c in job.constraints
    ]
    final_parallelism = {
        name: rv.parallelism for name, rv in job.runtime.vertices.items()
    }
    scaler = job.scaler
    scaling: Optional[Dict[str, object]] = None
    if scaler is not None:
        policy_spec = getattr(job, "policy_spec", None)
        scaling = {
            "policy": scaler.policy_name,
            "policy_spec": (
                policy_spec.canonical() if policy_spec is not None
                else scaler.policy_name
            ),
            "policy_knobs": getattr(scaler.policy, "knobs", dict)(),
            "rounds": scaler.rounds,
            "activations": len(scaler.events),
            "skipped_inactive": scaler.skipped_inactive,
            "skipped_stale": scaler.skipped_stale,
            "suppressed_scale_downs": scaler.suppressed_scale_downs,
            "unresolvable": scaler.unresolvable,
        }
    reconciler = getattr(job, "reconciler", None)
    obs = engine.observability
    if wall_time_s is None:
        if obs is not None and getattr(obs, "pin_wall_time", False):
            wall_time_s = 0.0
        else:
            wall_time_s = engine.wall_time_s
    trace = getattr(job, "trace", None)
    fault_plan = job.fault_injector.plan if job.fault_injector is not None else None
    data: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "job": job.job_graph.name,
        "seed": config.seed,
        "graph_hash": graph_hash(job.job_graph),
        "elastic": config.elastic,
        "constraints": constraints,
        "fault_plan": _fault_plan_dict(fault_plan),
        "virtual_time_s": engine.now,
        "wall_time_s": wall_time_s,
        "final_parallelism": final_parallelism,
        "scaling": scaling,
        "observability": {
            "metrics": bool(obs is not None and obs.metrics),
            "trace": bool(obs is not None and obs.trace),
            "trace_records": len(trace) if trace is not None else 0,
        },
        "files": {},
    }
    # Supervised-actuation section only when the job runs a reconciler,
    # so unsupervised manifests keep their pre-actuation byte layout.
    if reconciler is not None:
        data["actuation"] = reconciler.summary()
    # Keyed-state section only for stateful jobs, same byte-stability
    # contract: stateless manifests are unchanged.
    state_manager = getattr(job, "state_manager", None)
    if state_manager is not None:
        data["state"] = state_manager.summary()
    # Shared-cluster section only when the engine hosts more than one
    # job (single-job manifests keep their exact pre-admission bytes):
    # this job's slot account plus the cluster-wide admission counters.
    if len(getattr(engine, "jobs", ())) > 1:
        resources = engine.resources
        account = resources.account(job.job_id)
        data["shared_cluster"] = {
            "jobs": len(engine.jobs),
            "admission": resources.arbitration.name,
            "account": resources.job_summaries()[account.name],
            "cluster": {
                "total_slots": resources.total_slots,
                "admission_denials": resources.admission_denials,
                "preempted_tasks": resources.preempted_tasks,
            },
        }
    if extra:
        collisions = sorted(set(extra) & set(data))
        if collisions:
            raise ValueError(
                f"extra manifest sections collide with built-in keys: "
                f"{', '.join(collisions)}"
            )
        data.update(extra)
    return RunManifest(data)


def export_run(
    job, directory: str, extra: Optional[Dict[str, object]] = None
) -> Dict[str, str]:
    """Write ``manifest.json`` (+ ``metrics.jsonl`` / ``trace.jsonl``).

    Only the files whose observability feature is enabled are written;
    the manifest's ``files`` section names what exists. ``extra`` merges
    additional provenance sections into the manifest (see
    :func:`build_manifest`). Returns ``{kind: path}`` for everything
    written.
    """
    os.makedirs(directory, exist_ok=True)
    engine = job.engine
    manifest = build_manifest(job, extra=extra)
    paths: Dict[str, str] = {}
    sampler = getattr(engine, "_metrics_sampler", None)
    if sampler is not None:
        paths["metrics"] = sampler.write_jsonl(os.path.join(directory, METRICS_FILE))
        manifest.data["files"]["metrics"] = METRICS_FILE
    trace = getattr(job, "trace", None)
    if trace is not None:
        paths["trace"] = trace.write_jsonl(os.path.join(directory, TRACE_FILE))
        manifest.data["files"]["trace"] = TRACE_FILE
    manifest.data["files"]["manifest"] = MANIFEST_FILE
    paths["manifest"] = manifest.write(os.path.join(directory, MANIFEST_FILE))
    return paths
