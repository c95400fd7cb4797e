"""Deterministic merge of shard checkpoints into one aggregate report.

The aggregate is assembled from the shards' ``result.json`` checkpoints
*ordered by shard key* — never by completion time — and written as
canonical JSON (sorted keys, fixed indentation, trailing newline). Two
sweeps over the same grid therefore produce byte-identical aggregates no
matter the worker count, crashes, retries or a checkpointed resume in
between. Consumed by :class:`repro.experiments.dashboard.SweepDashboard`
and, through :func:`read_aggregate`, by ``repro compare``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

#: bump when the aggregate layout changes incompatibly
AGGREGATE_SCHEMA_VERSION = 1

#: canonical sweep-directory file names
AGGREGATE_FILE = "aggregate.json"
STATS_FILE = "sweep_stats.json"
GRID_FILE = "grid.json"


def _mean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return sum(values) / len(values)


def _fulfillment(result: Dict[str, object]) -> Optional[float]:
    constraints = result.get("constraints") or []
    return constraints[0]["fulfillment_ratio"] if constraints else None


def summarize_groups(results: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Across-seeds statistics per grid point (deterministic order)."""
    from repro.workloads.scenario import group_key

    groups: Dict[str, List[Dict[str, object]]] = {}
    for result in results:
        groups.setdefault(group_key(result["params"]), []).append(result)
    summary: Dict[str, object] = {}
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r["key"])
        summary[key] = {
            "seeds": [r["params"]["seed"] for r in members],
            "mean_fulfillment": _mean([_fulfillment(r) for r in members]),
            "violations": sum(
                c["violations"] for r in members for c in (r.get("constraints") or [])
            ),
            "mean_worker_parallelism": _mean(
                [r["final_parallelism"].get("worker") for r in members]
            ),
            "mean_cpu_utilization": _mean(
                [r["series"]["mean_cpu_utilization"] for r in members]
            ),
        }
    return summary


def merge_shard_results(
    grid_description: Dict[str, object],
    results: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge completed shard results into the aggregate report dict."""
    ordered = sorted(results, key=lambda r: r["key"])
    keys = [r["key"] for r in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate shard keys in merge input")
    return {
        "schema": AGGREGATE_SCHEMA_VERSION,
        "grid": grid_description,
        "shards": ordered,
        "summary": summarize_groups(ordered),
    }


def write_aggregate(path: str, aggregate: Dict[str, object]) -> str:
    """Write the aggregate as canonical JSON; returns the path."""
    from repro.experiments.report import write_json

    return write_json(path, aggregate)


def read_aggregate(path: str) -> Dict[str, object]:
    """Load an aggregate written by :func:`write_aggregate`."""
    with open(path, "r", encoding="utf-8") as handle:
        aggregate = json.load(handle)
    if aggregate.get("schema") != AGGREGATE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported aggregate schema {aggregate.get('schema')!r} "
            f"(expected {AGGREGATE_SCHEMA_VERSION})"
        )
    return aggregate
