"""Declarative sweep grids and their deterministic shard expansion.

A :class:`SweepGrid` names the axes of a parameter study — engine seeds,
source rates, latency bounds, workload variants and whether actuation
supervision is on — plus the per-run duration. :meth:`SweepGrid.expand`
turns the cartesian product into an ordered list of
:class:`~repro.workloads.scenario.ScenarioSpec` shards whose keys are
stable across processes and platforms, which is what makes
checkpoint/resume and the byte-identical merge possible. The workloads
axis draws from the one scenario registry
(:data:`repro.workloads.scenario.WORKLOADS`).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Mapping, Optional, Sequence

from repro.workloads.scenario import WORKLOADS, ScenarioSpec

#: bump when the grid layout changes incompatibly
GRID_SCHEMA_VERSION = 1


def _check_numbers(name: str, values: Sequence[float], minimum: float) -> List[float]:
    if not values:
        raise ValueError(f"grid axis {name!r} must not be empty")
    out: List[float] = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"grid axis {name!r} entries must be numbers, got {value!r}")
        value = float(value)
        if not math.isfinite(value) or value <= minimum:
            raise ValueError(f"grid axis {name!r} entries must be > {minimum}, got {value!r}")
        out.append(value)
    return out


class PresetConflict(ValueError):
    """More than one built-in grid was asked for (a usage error)."""


class SweepGrid:
    """The declarative description of one sweep (axes × duration)."""

    #: what :meth:`select` chooses from: a grid file, or a built-in
    PRESETS = ("grid", "quick", "tournament", "tournament_stateful", "shared_cluster")

    def __init__(
        self,
        name: str = "sweep",
        seeds: Sequence[int] = (1, 2, 3, 4),
        rates: Sequence[float] = (400.0,),
        bounds: Sequence[float] = (0.030,),
        workloads: Sequence[str] = ("steady",),
        actuation: Sequence[bool] = (False,),
        duration: float = 60.0,
        policies: Sequence[str] = ("scale-reactively",),
    ) -> None:
        from repro.core.policy import parse_policy_spec
        if not isinstance(name, str) or not name:
            raise ValueError("grid name must be a non-empty string")
        if not seeds:
            raise ValueError("grid axis 'seeds' must not be empty")
        for seed in seeds:
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise TypeError(f"seeds must be ints, got {seed!r}")
        for workload in workloads:
            if workload not in WORKLOADS:
                raise ValueError(
                    f"unknown workload {workload!r} (have: {', '.join(WORKLOADS)})"
                )
        if not workloads:
            raise ValueError("grid axis 'workloads' must not be empty")
        if not actuation:
            raise ValueError("grid axis 'actuation' must not be empty")
        for flag in actuation:
            if not isinstance(flag, bool):
                raise TypeError(f"actuation axis entries must be bools, got {flag!r}")
        if isinstance(duration, bool) or not isinstance(duration, (int, float)):
            raise TypeError(f"duration must be a number, got {duration!r}")
        if not math.isfinite(float(duration)) or float(duration) <= 0:
            raise ValueError(f"duration must be positive and finite, got {duration!r}")
        if not policies:
            raise ValueError("grid axis 'policies' must not be empty")
        canonical_policies: List[str] = []
        for policy in policies:
            if not isinstance(policy, str):
                raise TypeError(f"policies axis entries must be strings, got {policy!r}")
            # validates the name and knobs against the registry and
            # canonicalizes the knob ordering, so equal specs collapse
            spec = parse_policy_spec(policy).validate().canonical()
            if spec not in canonical_policies:
                canonical_policies.append(spec)
        self.name = name
        self.seeds = sorted(set(int(s) for s in seeds))
        self.rates = sorted(set(_check_numbers("rates", rates, 0.0)))
        self.bounds = sorted(set(_check_numbers("bounds", bounds, 0.0)))
        self.workloads = tuple(w for w in WORKLOADS if w in set(workloads))
        self.actuation = tuple(sorted(set(actuation)))
        self.duration = float(duration)
        self.policies = tuple(sorted(canonical_policies))

    @classmethod
    def quick(cls) -> "SweepGrid":
        """The 8-shard CI smoke grid (short runs, deterministic)."""
        return cls(
            name="quick",
            seeds=(1, 2, 3, 4),
            rates=(250.0, 400.0),
            bounds=(0.030,),
            workloads=("steady",),
            actuation=(False,),
            duration=8.0,
        )

    @classmethod
    def shared_cluster(cls) -> "SweepGrid":
        """The CI shared-cluster smoke grid.

        Two seeds of the ``multi_job`` benchmark: two elastic jobs with
        anti-phased + coincident peaks contending for a 12-slot pool
        under weighted fair-share admission. Each shard reports per-job
        fulfillment plus Jain's fairness index, and deterministically
        exercises at least one admission denial and one preemption.
        """
        return cls(
            name="shared-cluster",
            seeds=(1, 2),
            rates=(1400.0,),
            bounds=(0.060,),
            workloads=("multi_job",),
            actuation=(False,),
            duration=120.0,
        )

    @classmethod
    def tournament(cls) -> "SweepGrid":
        """The CI policy-tournament smoke grid.

        Five policies race on identical seeds/rates/bounds — the same
        deterministic workload per seed, so the only cross-shard
        difference within a seed is the scaling policy. The ``spike``
        workload stresses reaction: a deterministic service-time spike
        forces violations, so violation rate, task hours and reaction
        time actually separate the contenders. Small enough for CI,
        wide enough for a meaningful ``repro compare --scoreboard``.
        """
        return cls(
            name="tournament",
            seeds=(1, 2),
            rates=(400.0,),
            bounds=(0.030,),
            workloads=("spike",),
            actuation=(False,),
            duration=20.0,
            policies=(
                "scale-reactively", "cpu-threshold", "rate", "drs", "daedalus",
            ),
        )

    @classmethod
    def tournament_stateful(cls) -> "SweepGrid":
        """The stateful policy tournament: migrations priced in.

        Same race as :meth:`tournament` but on the ``stateful``
        workload: the worker carries key-partitioned state, so every
        rescale pays a migration pause and the migration-aware policies
        (scale-reactively, drs) may defer rescales the stateless
        contenders issue blindly. The scoreboard gains
        ``recovery_time_s`` and ``state_migrated_bytes`` columns from
        the shard's state section.
        """
        return cls(
            name="tournament-stateful",
            seeds=(1, 2),
            rates=(400.0,),
            bounds=(0.030,),
            workloads=("stateful",),
            actuation=(True,),
            duration=20.0,
            policies=(
                "scale-reactively", "cpu-threshold", "rate", "drs", "daedalus",
            ),
        )

    @classmethod
    def select(cls, presets: Mapping[str, object],
               axes: Optional[Mapping[str, object]] = None) -> "SweepGrid":
        """The grid ``repro sweep`` runs: one preset, then axis overrides.

        ``presets`` maps :data:`PRESETS` names to their flag values (a
        grid file path for ``grid``, else a bool); none asked for is the
        default grid, more than one raises :class:`PresetConflict`.
        ``axes`` replaces whole axes or ``duration``; ``None`` keeps one.
        """
        chosen = [name for name in cls.PRESETS if presets.get(name)]
        if len(chosen) > 1:
            raise PresetConflict("pass only one of " + ", ".join(
                "--" + name.replace("_", "-") for name in chosen))
        if not chosen:
            grid = cls()
        elif chosen[0] == "grid":
            grid = cls.from_file(presets["grid"])
        else:
            grid = getattr(cls, chosen[0])()
        overrides = {key: value for key, value in (axes or {}).items() if value is not None}
        data = dict(grid.describe(), **overrides)
        del data["shards"]
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """JSON-serializable, deterministic grid description."""
        return {
            "schema": GRID_SCHEMA_VERSION,
            "name": self.name,
            "seeds": list(self.seeds),
            "rates": list(self.rates),
            "bounds": list(self.bounds),
            "workloads": list(self.workloads),
            "actuation": list(self.actuation),
            "duration": self.duration,
            "policies": list(self.policies),
            "shards": len(self),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepGrid":
        """Build a grid from a (parsed) grid file / description."""
        schema = data.get("schema", GRID_SCHEMA_VERSION)
        if schema != GRID_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported grid schema {schema!r} (expected {GRID_SCHEMA_VERSION})"
            )
        known = {"schema", "name", "seeds", "rates", "bounds", "workloads",
                 "actuation", "duration", "policies", "shards"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown grid keys: {', '.join(unknown)}")
        kwargs: Dict[str, object] = {}
        for key in ("name", "seeds", "rates", "bounds", "workloads",
                    "actuation", "duration", "policies"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "SweepGrid":
        """Load a grid from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return (
            len(self.seeds) * len(self.rates) * len(self.bounds)
            * len(self.workloads) * len(self.actuation) * len(self.policies)
        )

    def expand(self) -> List[ScenarioSpec]:
        """All shards, ordered by shard key (the merge order)."""
        shards = [
            ScenarioSpec(
                seed=seed,
                rate=rate,
                bound=bound,
                workload=workload,
                actuation=actuation,
                duration=self.duration,
                policy=policy,
            )
            for workload in self.workloads
            for rate in self.rates
            for bound in self.bounds
            for actuation in self.actuation
            for policy in self.policies
            for seed in self.seeds
        ]
        shards.sort(key=lambda spec: spec.key)
        keys = [spec.key for spec in shards]
        if len(set(keys)) != len(keys):  # pragma: no cover - defensive
            raise ValueError("grid expansion produced duplicate shard keys")
        return shards

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SweepGrid({self.name!r}, {len(self)} shards)"


__all__ = ["SweepGrid", "PresetConflict", "WORKLOADS", "GRID_SCHEMA_VERSION"]
