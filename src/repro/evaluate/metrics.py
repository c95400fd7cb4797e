"""Metric extraction and summary statistics over sweep aggregates.

The evaluation platform compares *metric statistics*, not raw artifacts:
from a sweep's ``aggregate.json`` every shard contributes one value per
metric (constraint fulfillment, violation rate, per-feed latency, task
seconds, parallelism, CPU utilization), and the per-metric spread across
shards is condensed into the canonical statistic set ``avg / min / max /
p50 / p95 / count``. Those statistics are what baselines pin and what
tolerances bound (see :mod:`repro.evaluate.tolerance`).

Every metric carries a *direction*: ``lower`` means larger values are a
regression (latency, violations, cost), ``higher`` means smaller values
are (fulfillment, utilization). The direction decides which side of the
baseline a tolerance widens.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.qos.stats import mean_in_order, percentile

#: regression direction: larger candidate values are worse
LOWER_IS_BETTER = "lower"
#: regression direction: smaller candidate values are worse
HIGHER_IS_BETTER = "higher"

DIRECTIONS = (LOWER_IS_BETTER, HIGHER_IS_BETTER)

#: the statistics computed for every metric's across-shards spread
STAT_NAMES = ("avg", "min", "max", "p50", "p95", "count")

#: metric-name prefixes whose direction is "higher is better"
_HIGHER_PREFIXES = ("fulfillment/", "utilization/")


def metric_direction(name: str) -> str:
    """The regression direction implied by a metric's name."""
    for prefix in _HIGHER_PREFIXES:
        if name.startswith(prefix):
            return HIGHER_IS_BETTER
    return LOWER_IS_BETTER


class MetricSeries:
    """One metric's values across a run's shards, plus its direction."""

    __slots__ = ("name", "direction", "values", "dropped_non_finite")

    def __init__(
        self, name: str, values: Sequence[Optional[float]], direction: Optional[str] = None
    ) -> None:
        self.name = name
        self.direction = direction if direction is not None else metric_direction(name)
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown metric direction {self.direction!r}")
        finite: List[float] = []
        dropped = 0
        for value in values:
            if value is None:
                continue
            value = float(value)
            if math.isfinite(value):
                finite.append(value)
            else:
                dropped += 1
        self.values = finite
        #: NaN/inf inputs are never silently folded into statistics; they
        #: are counted so a comparison can flag the metric as corrupt.
        self.dropped_non_finite = dropped

    def stats(self) -> Dict[str, Optional[float]]:
        """The canonical statistic set (``None``-valued when empty)."""
        if not self.values:
            return {name: (0 if name == "count" else None) for name in STAT_NAMES}
        lo, hi = min(self.values), max(self.values)
        # Summation rounding can push the mean an ulp outside the data
        # range; clamp so `min <= avg <= max` holds exactly.
        return {
            "avg": min(max(mean_in_order(self.values), lo), hi),
            "min": lo,
            "max": hi,
            "p50": percentile(self.values, 50.0),
            "p95": percentile(self.values, 95.0),
            "count": len(self.values),
        }

    def describe(self) -> Dict[str, object]:
        """JSON-serializable digest (direction + stats + data hygiene)."""
        data: Dict[str, object] = {"direction": self.direction}
        data.update(self.stats())
        if self.dropped_non_finite:
            data["dropped_non_finite"] = self.dropped_non_finite
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricSeries({self.name!r}, n={len(self.values)})"


def _shard_metrics(shard: Mapping[str, object]) -> Dict[str, Optional[float]]:
    """One shard's contribution: flat ``{metric name: value}``."""
    out: Dict[str, Optional[float]] = {}
    for constraint in shard.get("constraints") or []:
        name = constraint["name"]
        out[f"fulfillment/{name}"] = constraint.get("fulfillment_ratio")
        intervals = constraint.get("intervals") or 0
        violations = constraint.get("violations") or 0
        out[f"violation_rate/{name}"] = (
            violations / intervals if intervals else None
        )
    series = shard.get("series") or {}
    for feed, latencies in sorted((series.get("feeds") or {}).items()):
        out[f"latency/{feed}/mean"] = latencies.get("mean_latency")
        out[f"latency/{feed}/p95"] = latencies.get("max_p95_latency")
    if "task_seconds" in series:
        out["cost/task_seconds"] = series.get("task_seconds")
    if "mean_cpu_utilization" in series:
        out["utilization/cpu"] = series.get("mean_cpu_utilization")
    scaling = shard.get("scaling") or {}
    if "reaction_time_s" in scaling:
        # None = the run had no violation onsets; contributes nothing
        # (count records coverage) rather than a fake zero
        out["reaction/time_s"] = scaling.get("reaction_time_s")
    state = shard.get("state") or {}
    if state:
        # stateful shards only; stateless runs contribute nothing so the
        # metric's count records coverage honestly
        out["recovery/time_s"] = state.get("recovery_time_s")
        out["state/migrated_bytes"] = state.get("state_migrated_bytes")
        migrations = state.get("migrations") or {}
        out["state/migrations_deferred"] = migrations.get("deferred")
    for vertex, parallelism in sorted((shard.get("final_parallelism") or {}).items()):
        out[f"cost/parallelism/{vertex}"] = parallelism
    return out


def extract_metrics(aggregate: Mapping[str, object]) -> Dict[str, MetricSeries]:
    """Per-metric value series across all shards of one aggregate.

    A metric appears once any shard reports it; shards lacking it simply
    contribute nothing (the ``count`` statistic records coverage). The
    mapping is ordered by metric name, so downstream JSON is canonical.
    """
    shards = aggregate.get("shards") or []
    per_metric: Dict[str, List[Optional[float]]] = {}
    for shard in shards:
        for name, value in _shard_metrics(shard).items():
            per_metric.setdefault(name, []).append(value)
    return {
        name: MetricSeries(name, per_metric[name]) for name in sorted(per_metric)
    }


def metrics_from_stats(
    stats: Mapping[str, Mapping[str, object]]
) -> Dict[str, Dict[str, object]]:
    """Validate and normalize a ``{metric: {direction, stats...}}`` table.

    Used when the candidate of a comparison is itself a baseline file
    (statistics only, no raw shard values). Unknown statistic keys are
    rejected so typos fail loudly instead of silently passing.
    """
    known = set(STAT_NAMES) | {"direction", "dropped_non_finite"}
    out: Dict[str, Dict[str, object]] = {}
    for name in sorted(stats):
        entry = dict(stats[name])
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ValueError(
                f"metric {name!r} has unknown statistic keys: {', '.join(unknown)}"
            )
        direction = entry.get("direction", metric_direction(name))
        if direction not in DIRECTIONS:
            raise ValueError(f"metric {name!r}: unknown direction {direction!r}")
        entry["direction"] = direction
        for stat in STAT_NAMES:
            value = entry.get(stat)
            if value is None:
                continue
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"metric {name!r}: non-finite {stat} statistic")
            entry[stat] = value
        out[name] = entry
    return out
