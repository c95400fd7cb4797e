"""Tolerance specs: per-metric, per-statistic bounds around a baseline.

A tolerance file names how far each metric statistic may drift from its
baseline value in the *bad* direction (the metric's direction decides
which side that is) before a comparison fails:

.. code-block:: json

    {
      "schema": 1,
      "mode": "relative",
      "default": {"avg": 0.05, "p95": 0.1, "max": 0.2},
      "metrics": {
        "latency/e2e/mean": {"mode": "absolute", "avg": 0.002},
        "violation_rate/e2e": {"mode": "absolute", "avg": 0.02, "max": 0.05}
      }
    }

``relative`` widens by ``|baseline| * tolerance``; ``absolute`` widens
by the tolerance itself. Checks are inclusive — a candidate statistic
exactly at the widened limit passes. A statistic a tolerance entry does
not name is unchecked. The string ``"inf"`` disables a bound explicitly
(JSON has no Infinity literal under the canonical writer).

:func:`suggest_tolerance` inverts the check: the smallest (deterministic,
rounded-up) tolerance that would have admitted an observed candidate —
the *suggested empirical tolerance* trick, reported on failures and used
by ``repro compare --suggest`` to derive a spec from same-config runs.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Mapping, Optional

from repro.evaluate.metrics import HIGHER_IS_BETTER, LOWER_IS_BETTER, STAT_NAMES

#: bump when the tolerance layout changes incompatibly
TOLERANCE_SCHEMA_VERSION = 1

MODE_RELATIVE = "relative"
MODE_ABSOLUTE = "absolute"
MODES = (MODE_RELATIVE, MODE_ABSOLUTE)

#: statistics a tolerance entry may bound (count is coverage, not drift)
BOUNDABLE_STATS = tuple(stat for stat in STAT_NAMES if stat != "count")

#: granularity suggested tolerances are rounded up to
SUGGEST_GRANULARITY = 1e-4


def _parse_bound(metric: str, stat: str, value: object) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"tolerance for {metric!r}.{stat} must be a number or \"inf\", got {value!r}"
        )
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise ValueError(
            f"tolerance for {metric!r}.{stat} must be >= 0, got {value!r}"
        )
    return value


def _parse_entry(metric: str, entry: Mapping[str, object], default_mode: str) -> Dict[str, object]:
    if not isinstance(entry, Mapping):
        raise ValueError(f"tolerance entry for {metric!r} must be an object")
    unknown = sorted(set(entry) - set(BOUNDABLE_STATS) - {"mode"})
    if unknown:
        raise ValueError(
            f"tolerance entry for {metric!r} has unknown keys: {', '.join(unknown)}"
        )
    mode = entry.get("mode", default_mode)
    if mode not in MODES:
        raise ValueError(f"tolerance entry for {metric!r}: unknown mode {mode!r}")
    bounds = {
        stat: _parse_bound(metric, stat, entry[stat])
        for stat in BOUNDABLE_STATS
        if stat in entry
    }
    return {"mode": mode, "bounds": bounds}


class ToleranceSpec:
    """Parsed and validated tolerance spec (see the module docstring)."""

    def __init__(
        self,
        default: Optional[Mapping[str, object]] = None,
        metrics: Optional[Mapping[str, Mapping[str, object]]] = None,
        mode: str = MODE_RELATIVE,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown tolerance mode {mode!r}")
        self.mode = mode
        self.default = _parse_entry("default", default or {}, mode)
        self.metrics: Dict[str, Dict[str, object]] = {
            name: _parse_entry(name, entry, mode)
            for name, entry in sorted((metrics or {}).items())
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ToleranceSpec":
        """Parse a tolerance file's JSON dict; rejects unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError("tolerance spec must be a JSON object")
        schema = data.get("schema", TOLERANCE_SCHEMA_VERSION)
        if schema != TOLERANCE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported tolerance schema {schema!r} "
                f"(expected {TOLERANCE_SCHEMA_VERSION})"
            )
        unknown = sorted(set(data) - {"schema", "mode", "default", "metrics"})
        if unknown:
            raise ValueError(f"unknown tolerance keys: {', '.join(unknown)}")
        return cls(
            default=data.get("default"),
            metrics=data.get("metrics"),
            mode=data.get("mode", MODE_RELATIVE),
        )

    @classmethod
    def read(cls, path: str) -> "ToleranceSpec":
        """Load a tolerance spec file (``repro compare --tolerance``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def describe(self) -> Dict[str, object]:
        """Canonical JSON-serializable round-trip of the spec."""
        def entry_dict(entry: Dict[str, object]) -> Dict[str, object]:
            out: Dict[str, object] = {"mode": entry["mode"]}
            for stat, value in sorted(entry["bounds"].items()):
                out[stat] = "inf" if math.isinf(value) else value
            return out

        return {
            "schema": TOLERANCE_SCHEMA_VERSION,
            "mode": self.mode,
            "default": entry_dict(self.default),
            "metrics": {
                name: entry_dict(entry) for name, entry in sorted(self.metrics.items())
            },
        }

    def for_metric(self, metric: str) -> Dict[str, object]:
        """The effective ``{mode, bounds}`` entry for one metric."""
        return self.metrics.get(metric, self.default)

    def bounded_stats(self, metric: str):
        """The statistics checked for one metric, in canonical order."""
        bounds = self.for_metric(metric)["bounds"]
        return tuple(stat for stat in BOUNDABLE_STATS if stat in bounds)


def limit_value(baseline: float, tolerance: float, mode: str, direction: str) -> float:
    """The widened pass/fail limit for one statistic.

    The limit always moves in the metric's *bad* direction: up for
    lower-is-better metrics, down for higher-is-better ones. Relative
    widening uses ``|baseline|`` so the limit is monotone in the
    tolerance regardless of the baseline's sign (and commutes with
    positive metric scaling).
    """
    if mode not in MODES:
        raise ValueError(f"unknown tolerance mode {mode!r}")
    slack = abs(baseline) * tolerance if mode == MODE_RELATIVE else tolerance
    if direction == LOWER_IS_BETTER:
        return baseline + slack
    if direction == HIGHER_IS_BETTER:
        return baseline - slack
    raise ValueError(f"unknown metric direction {direction!r}")


def within_tolerance(
    candidate: float, baseline: float, tolerance: float, mode: str, direction: str
) -> bool:
    """Inclusive tolerance check: exactly-at-limit passes."""
    limit = limit_value(baseline, tolerance, mode, direction)
    if direction == LOWER_IS_BETTER:
        return candidate <= limit
    return candidate >= limit


def suggest_tolerance(
    candidate: float, baseline: float, mode: str, direction: str
) -> Optional[float]:
    """The smallest granular tolerance admitting ``candidate``.

    Deterministic: drift is rounded *up* to :data:`SUGGEST_GRANULARITY`
    steps and then nudged upward (never downward) until the resulting
    check actually passes, so a suggested tolerance always admits the
    run it was derived from. Returns ``None`` when no finite tolerance
    can admit the candidate (relative mode around a zero baseline).
    """
    if direction == LOWER_IS_BETTER:
        drift = candidate - baseline
    else:
        drift = baseline - candidate
    if drift <= 0.0:
        return 0.0
    if mode == MODE_RELATIVE:
        if abs(baseline) == 0.0:
            return None
        needed = drift / abs(baseline)
    else:
        needed = drift
    steps = needed / SUGGEST_GRANULARITY
    if not math.isfinite(steps):
        # The drift dwarfs the baseline so badly that granular rounding
        # overflows; only an unbounded tolerance can admit the run.
        return math.inf
    suggested = math.ceil(steps) * SUGGEST_GRANULARITY
    while not within_tolerance(candidate, baseline, suggested, mode, direction):
        bumped = suggested + SUGGEST_GRANULARITY
        # A huge suggestion can absorb the granular bump entirely; fall
        # back to the next representable float so the loop terminates.
        suggested = bumped if bumped > suggested else math.nextafter(suggested, math.inf)
    return suggested
