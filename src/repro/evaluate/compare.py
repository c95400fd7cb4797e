"""The baseline+tolerance comparison engine behind ``repro compare``.

:func:`compare_runs` evaluates one or more *candidates* (sweep
aggregates, or pre-summarized baseline-format stats) against a
:class:`~repro.evaluate.baseline.Baseline`: every statistic the
tolerance spec bounds becomes one inclusive pass/fail
:class:`StatCheck`, data-hygiene defects (missing metrics, missing
statistics, non-finite values) become :class:`Problem` entries that fail
the comparison without crashing it, and every failing check carries the
suggested empirical tolerance that would have admitted the candidate.

The resulting :class:`Comparison` serializes through
:meth:`Comparison.to_dict` into canonical, fully deterministic JSON —
two invocations over the same inputs diff byte-for-byte — and renders
through :mod:`repro.evaluate.render` (ASCII box plots / HTML).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.evaluate.baseline import Baseline
from repro.evaluate.metrics import metrics_from_stats
from repro.evaluate.tolerance import (
    BOUNDABLE_STATS,
    ToleranceSpec,
    limit_value,
    suggest_tolerance,
    within_tolerance,
)

#: bump when the comparison layout changes incompatibly
COMPARISON_SCHEMA_VERSION = 1


class Candidate:
    """One run under evaluation: a name plus its metric statistics."""

    def __init__(self, name: str, metrics: Mapping[str, Mapping[str, object]]) -> None:
        self.name = name
        self.metrics = metrics_from_stats(metrics)

    @classmethod
    def from_aggregate(cls, name: str, aggregate: Mapping[str, object]) -> "Candidate":
        """Build a candidate from a sweep's merged aggregate dict."""
        return cls(name, Baseline.from_aggregate(name, aggregate).metrics)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Candidate({self.name!r}, {len(self.metrics)} metrics)"


class StatCheck:
    """One (candidate, metric, statistic) tolerance check."""

    __slots__ = (
        "candidate", "metric", "stat", "direction", "mode", "tolerance",
        "baseline", "value", "limit", "passed", "suggested",
    )

    def __init__(
        self,
        candidate: str,
        metric: str,
        stat: str,
        direction: str,
        mode: str,
        tolerance: float,
        baseline: float,
        value: float,
    ) -> None:
        self.candidate = candidate
        self.metric = metric
        self.stat = stat
        self.direction = direction
        self.mode = mode
        self.tolerance = tolerance
        self.baseline = baseline
        self.value = value
        self.limit = limit_value(baseline, tolerance, mode, direction)
        self.passed = within_tolerance(value, baseline, tolerance, mode, direction)
        self.suggested = (
            None if self.passed else suggest_tolerance(value, baseline, mode, direction)
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "candidate": self.candidate,
            "metric": self.metric,
            "stat": self.stat,
            "direction": self.direction,
            "mode": self.mode,
            "tolerance": "inf" if math.isinf(self.tolerance) else self.tolerance,
            "baseline": self.baseline,
            "value": self.value,
            "limit": (
                ("inf" if self.limit > 0 else "-inf")
                if math.isinf(self.limit) else self.limit
            ),
            "passed": self.passed,
        }
        if not self.passed:
            data["suggested_tolerance"] = (
                "inf" if self.suggested is None or math.isinf(self.suggested)
                else self.suggested
            )
        return data

    def describe(self) -> str:
        """One human-readable line naming the offending statistic."""
        relation = "<=" if self.direction == "lower" else ">="
        status = "ok" if self.passed else "FAIL"
        return (
            f"{status}  {self.metric}.{self.stat}: {self.value:.6g} {relation} "
            f"{self.limit:.6g} (baseline {self.baseline:.6g}, "
            f"{self.mode} tolerance {self.tolerance:g})"
        )


class Problem:
    """A data-hygiene defect that fails a comparison without a check."""

    __slots__ = ("candidate", "metric", "issue")

    def __init__(self, candidate: str, metric: str, issue: str) -> None:
        self.candidate = candidate
        self.metric = metric
        self.issue = issue

    def to_dict(self) -> Dict[str, object]:
        return {"candidate": self.candidate, "metric": self.metric, "issue": self.issue}

    def describe(self) -> str:
        return f"PROBLEM  {self.metric}: {self.issue} ({self.candidate})"


class Comparison:
    """The full outcome of comparing candidates against one baseline."""

    def __init__(
        self,
        baseline: Baseline,
        candidates: Sequence[Candidate],
        tolerance: ToleranceSpec,
        checks: Sequence[StatCheck],
        problems: Sequence[Problem],
        new_metrics: Sequence[str],
    ) -> None:
        self.baseline = baseline
        self.candidates = list(candidates)
        self.tolerance = tolerance
        self.checks = list(checks)
        self.problems = list(problems)
        self.new_metrics = list(new_metrics)

    @property
    def passed(self) -> bool:
        """Green iff every check passes and no data problems exist."""
        return not self.problems and all(check.passed for check in self.checks)

    def failures(self) -> List[StatCheck]:
        """All failing checks, in canonical order."""
        return [check for check in self.checks if not check.passed]

    def failed_metrics(self) -> List[str]:
        """The offending metric names (checks and problems), deduplicated."""
        names: List[str] = []
        for check in self.failures():
            if check.metric not in names:
                names.append(check.metric)
        for problem in self.problems:
            if problem.metric not in names:
                names.append(problem.metric)
        return names

    def suggested_tolerance(self) -> Dict[str, object]:
        """A tolerance spec that would admit every compared candidate.

        Per (metric, statistic) the maximum suggested tolerance across
        candidates is taken, seeded from the spec actually used — so the
        result is the tightest widening of the current spec that turns
        this comparison green. Statistics no finite tolerance can admit
        (relative drift around a zero baseline) become ``"inf"``.
        """
        spec = self.tolerance.describe()
        metrics: Dict[str, Dict[str, object]] = dict(spec.get("metrics") or {})
        needed: Dict[str, Dict[str, object]] = {}
        for check in self.checks:
            if check.passed:
                continue
            entry = needed.setdefault(check.metric, {"mode": check.mode})
            current = entry.get(check.stat, 0.0)
            suggested = (
                "inf" if check.suggested is None or math.isinf(check.suggested)
                else check.suggested
            )
            if current == "inf":
                continue
            if suggested == "inf" or suggested > current:
                entry[check.stat] = suggested
        for metric, entry in sorted(needed.items()):
            merged = dict(metrics.get(metric) or {"mode": entry["mode"]})
            for stat, value in entry.items():
                if stat == "mode":
                    merged.setdefault("mode", value)
                    continue
                merged[stat] = value
            metrics[metric] = merged
        spec["metrics"] = {name: metrics[name] for name in sorted(metrics)}
        return spec

    def to_dict(self, suggest: bool = False) -> Dict[str, object]:
        """Canonical machine-readable comparison report."""
        data: Dict[str, object] = {
            "schema": COMPARISON_SCHEMA_VERSION,
            "baseline": self.baseline.name,
            "candidates": [
                {"name": c.name, "metrics": {m: dict(e) for m, e in sorted(c.metrics.items())}}
                for c in self.candidates
            ],
            "tolerance": self.tolerance.describe(),
            "checks": [check.to_dict() for check in self.checks],
            "problems": [problem.to_dict() for problem in self.problems],
            "new_metrics": list(self.new_metrics),
            "failed_metrics": self.failed_metrics(),
            "passed": self.passed,
        }
        if suggest:
            data["suggested_tolerance"] = self.suggested_tolerance()
        return data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Comparison({self.baseline.name!r}, {len(self.candidates)} candidates, "
            f"{'green' if self.passed else 'RED'})"
        )


def _stat_value(entry: Mapping[str, object], stat: str) -> Optional[float]:
    value = entry.get(stat)
    return None if value is None else float(value)


def compare_runs(
    baseline: Baseline,
    candidates: Sequence[Candidate],
    tolerance: Optional[ToleranceSpec] = None,
) -> Comparison:
    """Evaluate ``candidates`` against ``baseline`` under a tolerance spec.

    ``tolerance`` overrides the baseline's own spec (the ``--tolerance``
    CLI flag). Checks run for every statistic the spec bounds on every
    baseline metric; candidates are processed in the given order and
    metrics in name order, so the output is canonical.
    """
    spec = tolerance if tolerance is not None else baseline.tolerance
    checks: List[StatCheck] = []
    problems: List[Problem] = []
    new_metrics: List[str] = []
    for candidate in candidates:
        for metric in sorted(baseline.metrics):
            base_entry = baseline.metrics[metric]
            direction = base_entry["direction"]
            entry = candidate.metrics.get(metric)
            bounded = spec.bounded_stats(metric)
            if entry is None:
                problems.append(
                    Problem(candidate.name, metric, "metric missing from candidate")
                )
                continue
            if entry.get("dropped_non_finite"):
                problems.append(
                    Problem(
                        candidate.name, metric,
                        f"{entry['dropped_non_finite']} non-finite values dropped",
                    )
                )
            mode = spec.for_metric(metric)["mode"]
            bounds = spec.for_metric(metric)["bounds"]
            for stat in bounded:
                base_value = _stat_value(base_entry, stat)
                if base_value is None:
                    continue
                value = _stat_value(entry, stat)
                if value is None:
                    problems.append(
                        Problem(
                            candidate.name, metric,
                            f"statistic {stat!r} missing from candidate",
                        )
                    )
                    continue
                checks.append(
                    StatCheck(
                        candidate.name, metric, stat, direction, mode,
                        bounds[stat], base_value, value,
                    )
                )
        for metric in sorted(candidate.metrics):
            if metric not in baseline.metrics and metric not in new_metrics:
                new_metrics.append(metric)
    return Comparison(baseline, candidates, spec, checks, problems, new_metrics)


def suggest_from_runs(
    baseline: Baseline, candidates: Sequence[Candidate]
) -> Tuple[Comparison, Dict[str, object]]:
    """The suggest-then-commit loop's first half.

    Compares under a zero-slack spec derived from the baseline's own
    (same modes, all bounded statistics at 0) so *every* drift surfaces,
    then returns the comparison plus the empirical tolerance spec that
    admits all given candidates — ready to review and commit into the
    baseline file.
    """
    base_spec = baseline.tolerance.describe()

    def zeroed(entry: Mapping[str, object]) -> Dict[str, object]:
        return {
            key: (0.0 if key != "mode" else value) for key, value in entry.items()
        }

    zero_spec = ToleranceSpec.from_dict({
        "schema": base_spec["schema"],
        "mode": base_spec["mode"],
        "default": zeroed(base_spec["default"]),
        "metrics": {
            name: zeroed(entry)
            for name, entry in (base_spec.get("metrics") or {}).items()
        },
    })
    comparison = compare_runs(baseline, candidates, tolerance=zero_spec)
    return comparison, comparison.suggested_tolerance()
