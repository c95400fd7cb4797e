"""Committed baselines: pinned metric statistics plus their tolerances.

A baseline file is the unit the evaluation platform gates against — the
metric statistics of a known-good run (typically a sweep aggregate) plus
the tolerance spec future runs must stay within:

.. code-block:: json

    {
      "schema": 1,
      "name": "twitter",
      "scenario": {"grid": {...}},
      "metrics": {
        "latency/e2e/mean": {"direction": "lower", "avg": 0.0123, ...}
      },
      "tolerance": {"schema": 1, "mode": "relative", ...}
    }

Baselines are written through the canonical atomic JSON writer
(:func:`repro.experiments.report.write_json`), so regenerating one from
the same deterministic run diffs byte-for-byte. ``baselines/`` at the
repo root holds the committed instances (see ``baselines/twitter.json``
for the paper's TwitterSentiment scenario).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Mapping, Optional, Tuple

from repro.evaluate.metrics import extract_metrics, metrics_from_stats
from repro.evaluate.tolerance import ToleranceSpec

#: bump when the baseline layout changes incompatibly
BASELINE_SCHEMA_VERSION = 1

#: conservative spec applied when a baseline is created without one:
#: small relative drift on central statistics, more headroom at the tail
DEFAULT_TOLERANCE = {
    "schema": 1,
    "mode": "relative",
    "default": {"avg": 0.05, "p95": 0.1, "max": 0.2},
    "metrics": {},
}


class Baseline:
    """A parsed baseline file: name, scenario provenance, stats, tolerance."""

    def __init__(
        self,
        name: str,
        metrics: Mapping[str, Mapping[str, object]],
        tolerance: Optional[Mapping[str, object]] = None,
        scenario: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError("baseline name must be a non-empty string")
        self.name = name
        self.metrics = metrics_from_stats(metrics)
        self.tolerance = ToleranceSpec.from_dict(
            tolerance if tolerance is not None else DEFAULT_TOLERANCE
        )
        self.scenario = dict(scenario) if scenario else None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_aggregate(
        cls,
        name: str,
        aggregate: Mapping[str, object],
        tolerance: Optional[Mapping[str, object]] = None,
    ) -> "Baseline":
        """Pin a baseline from a sweep's merged ``aggregate.json`` dict."""
        scenario = {"grid": aggregate.get("grid")} if aggregate.get("grid") else None
        series = extract_metrics(aggregate)
        stats = {metric: series[metric].describe() for metric in sorted(series)}
        return cls(name, stats, tolerance=tolerance, scenario=scenario)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Baseline":
        """Parse a baseline file's JSON dict; rejects unknown keys."""
        if not isinstance(data, Mapping):
            raise ValueError("baseline must be a JSON object")
        schema = data.get("schema", BASELINE_SCHEMA_VERSION)
        if schema != BASELINE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported baseline schema {schema!r} "
                f"(expected {BASELINE_SCHEMA_VERSION})"
            )
        unknown = sorted(set(data) - {"schema", "name", "scenario", "metrics", "tolerance"})
        if unknown:
            raise ValueError(f"unknown baseline keys: {', '.join(unknown)}")
        if "metrics" not in data or not data["metrics"]:
            raise ValueError("baseline has no metrics")
        return cls(
            data.get("name", "baseline"),
            data["metrics"],
            tolerance=data.get("tolerance"),
            scenario=data.get("scenario"),
        )

    @classmethod
    def read(cls, path: str) -> "Baseline":
        """Load a baseline file written by :meth:`write`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Canonical JSON-serializable round-trip of the baseline."""
        data: Dict[str, object] = {
            "schema": BASELINE_SCHEMA_VERSION,
            "name": self.name,
            "metrics": {name: dict(entry) for name, entry in sorted(self.metrics.items())},
            "tolerance": self.tolerance.describe(),
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario
        return data

    def write(self, path: str) -> str:
        """Write the baseline through the canonical atomic JSON writer."""
        from repro.experiments.report import write_json

        return write_json(path, self.describe())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Baseline({self.name!r}, {len(self.metrics)} metrics)"


def load_run(path: str) -> Tuple[str, Baseline, Optional[Dict[str, object]]]:
    """Load one ``repro compare`` RUN: ``(name, stats, aggregate)``.

    A RUN is a sweep output directory, its ``aggregate.json`` (parsed once,
    checked by :func:`~repro.sweep.report.read_aggregate`; ``aggregate`` is the raw
    dict ``--scoreboard`` needs) or a baseline-format file (parsed by
    :meth:`Baseline.from_dict` like any ``--baseline``; ``aggregate`` is
    ``None``). ``name`` comes from the path, which a file's own ``name``
    overrides in ``stats``.
    """
    from repro.sweep.report import AGGREGATE_FILE, read_aggregate

    normalized = os.path.normpath(path)
    name = os.path.basename(normalized)
    if name == AGGREGATE_FILE:
        name = os.path.basename(os.path.dirname(normalized)) or name
    if name.endswith(".json"):
        name = name[: -len(".json")] or name
    if os.path.isdir(path):
        path = os.path.join(path, AGGREGATE_FILE)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "shards" in data:
        aggregate = read_aggregate(data)
        return name, Baseline.from_aggregate(name, aggregate), aggregate
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(f"{path} is neither a sweep aggregate nor a baseline-format file")
    return name, Baseline.from_dict({"name": name, **data}), None
