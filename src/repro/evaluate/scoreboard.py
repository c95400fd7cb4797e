"""Per-policy tournament scoreboards over sweep aggregates.

A *tournament* is a sweep whose grid carries a ``policies`` axis: every
policy runs the exact same seeds/rates/bounds/workloads, so the only
cross-shard difference within a seed is the scaling policy. This module
condenses such an aggregate into a per-policy scoreboard of the three
tournament metrics the paper's elasticity story cares about:

* **violation rate** — the fraction of observed adjustment intervals in
  violation (lower = the policy controls latency);
* **task hours** — provisioned capacity cost (lower = the policy is
  resource-efficient);
* **reaction time** — mean delay from a constraint-violation onset to
  the first scaler activation (lower = the policy reacts promptly).

:func:`build_scoreboard` returns a canonical, JSON-serializable dict
(policies sorted by name, deterministic statistics per column);
:func:`render_scoreboard` renders the ASCII table ``repro compare
--scoreboard`` prints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

#: bump when the scoreboard layout changes incompatibly
SCOREBOARD_SCHEMA_VERSION = 1

#: (column key, header, unit scale) of the rendered table; the two
#: state columns render "-" for stateless tournaments (no shard carries
#: a state section) and therefore never crown a winner there
_COLUMNS = (
    ("violation_rate", "viol rate", 1.0),
    ("task_hours", "task hours", 1.0),
    ("reaction_time_s", "reaction s", 1.0),
    ("fulfillment", "fulfill", 1.0),
    ("fairness", "fairness", 1.0),
    ("final_parallelism", "final p", 1.0),
    ("recovery_time_s", "recovery s", 1.0),
    ("state_migrated_bytes", "mig bytes", 1.0),
)


def _mean(values: Sequence[Optional[float]]) -> Optional[float]:
    finite = [float(v) for v in values if v is not None]
    if not finite:
        return None
    return sum(finite) / len(finite)


def _shard_policy(shard: Mapping[str, object]) -> str:
    params = shard.get("params") or {}
    policy = params.get("policy")
    if policy:
        return str(policy)
    scaling = shard.get("scaling") or {}
    return str(scaling.get("policy") or "unknown")


def _shard_violation_rate(shard: Mapping[str, object]) -> Optional[float]:
    intervals = 0
    violations = 0
    for constraint in shard.get("constraints") or []:
        intervals += constraint.get("intervals") or 0
        violations += constraint.get("violations") or 0
    if not intervals:
        return None
    return violations / intervals


def _shard_fulfillment(shard: Mapping[str, object]) -> Optional[float]:
    ratios = [
        c.get("fulfillment_ratio")
        for c in (shard.get("constraints") or [])
        if c.get("fulfillment_ratio") is not None
    ]
    return _mean(ratios)


def _shard_fairness(shard: Mapping[str, object]) -> Optional[float]:
    # Jain's fairness index over per-job fulfillment — only multi_job
    # (shared-cluster) shards carry it; single-job shards render "-".
    return shard.get("fairness")


def _shard_task_hours(shard: Mapping[str, object]) -> Optional[float]:
    series = shard.get("series") or {}
    task_seconds = series.get("task_seconds")
    if task_seconds is None:
        return None
    return float(task_seconds) / 3600.0


def _shard_reaction(shard: Mapping[str, object]) -> Optional[float]:
    scaling = shard.get("scaling") or {}
    return scaling.get("reaction_time_s")


def _shard_parallelism(shard: Mapping[str, object]) -> Optional[float]:
    final = shard.get("final_parallelism") or {}
    if not final:
        return None
    return float(sum(final.values()))


def _shard_recovery(shard: Mapping[str, object]) -> Optional[float]:
    state = shard.get("state") or {}
    return state.get("recovery_time_s")


def _shard_migrated_bytes(shard: Mapping[str, object]) -> Optional[float]:
    state = shard.get("state") or {}
    return state.get("state_migrated_bytes")


def build_scoreboard(aggregate: Mapping[str, object]) -> Dict[str, object]:
    """Condense a sweep aggregate into the per-policy scoreboard dict.

    Raises ``ValueError`` when the aggregate holds no shards — an empty
    tournament is an orchestration error, not a tie.
    """
    shards = aggregate.get("shards") or []
    if not shards:
        raise ValueError("aggregate holds no shards — nothing to score")
    per_policy: Dict[str, List[Mapping[str, object]]] = {}
    for shard in shards:
        per_policy.setdefault(_shard_policy(shard), []).append(shard)
    policies: Dict[str, Dict[str, object]] = {}
    for policy in sorted(per_policy):
        members = sorted(per_policy[policy], key=lambda s: s.get("key") or "")
        policies[policy] = {
            "shards": len(members),
            "violation_rate": _mean([_shard_violation_rate(s) for s in members]),
            "task_hours": _mean([_shard_task_hours(s) for s in members]),
            "reaction_time_s": _mean([_shard_reaction(s) for s in members]),
            "fulfillment": _mean([_shard_fulfillment(s) for s in members]),
            "fairness": _mean([_shard_fairness(s) for s in members]),
            "final_parallelism": _mean([_shard_parallelism(s) for s in members]),
            "recovery_time_s": _mean([_shard_recovery(s) for s in members]),
            "state_migrated_bytes": _mean([_shard_migrated_bytes(s) for s in members]),
        }
    grid = aggregate.get("grid") or {}
    return {
        "schema": SCOREBOARD_SCHEMA_VERSION,
        "grid": grid.get("name"),
        "shards": len(shards),
        "policies": policies,
    }


def _format_cell(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 100:
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"


def render_scoreboard(scoreboard: Mapping[str, object], run: Optional[str] = None) -> str:
    """The ASCII tournament table (winner-per-column marked with ``*``).

    Lower is better in every column except ``fulfill``; the best value
    per column carries a trailing ``*``. Deterministic: policies render
    in name order, winners break ties toward the first row. With a
    ``run`` name the table is headed by that run and its shard count.
    """
    policies: Mapping[str, Mapping[str, object]] = scoreboard["policies"]
    names = list(policies)
    winners: Dict[str, Optional[str]] = {}
    for column, _header, _scale in _COLUMNS:
        best_name = None
        best_value = None
        for name in names:
            value = policies[name].get(column)
            if value is None:
                continue
            higher_wins = column in ("fulfillment", "fairness")
            better = (
                best_value is None
                or (value > best_value if higher_wins else value < best_value)
            )
            if better:
                best_name, best_value = name, value
        winners[column] = best_name
    headers = ["policy", "shards"] + [header for _c, header, _s in _COLUMNS]
    rows: List[List[str]] = []
    for name in names:
        entry = policies[name]
        row = [name, str(entry.get("shards", 0))]
        for column, _header, _scale in _COLUMNS:
            cell = _format_cell(entry.get(column))
            if winners[column] == name and cell != "-":
                cell += "*"
            row.append(cell)
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [] if run is None else [
        f"policy tournament scoreboard ({run}, {scoreboard['shards']} shards):", "",
    ]
    lines += [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip()
        )
    lines.append("")
    lines.append(
        "* best per column (fulfill/fairness: higher is better; all others: lower)"
    )
    return "\n".join(lines)


__all__ = [
    "SCOREBOARD_SCHEMA_VERSION",
    "build_scoreboard",
    "render_scoreboard",
]
