"""Scaler decision traces: why ScaleReactively chose a parallelism.

Every adjustment interval the scaler evaluates each constraint and
either Rebalances, resolves a bottleneck, or skips (stale measurements,
missing model, inactivity phase). All the intermediate quantities — the
measured queue wait, the predicted wait at the chosen ``p*``, the
fitting coefficient ``e_jv``, utilization extrapolations and the Ŵ
budget split — are captured as :class:`TraceRecord` rows so an operator
can audit *why* a scaling action happened instead of reverse-engineering
it from the parallelism series.

Records use a versioned, flat JSON schema (``trace.jsonl``, one record
per line) consumed by ``python -m repro trace show`` / ``--check``;
``repro run`` prints a live job's last decisions the same way.

Schema history
--------------
* **v1** — the original eight Algorithm-2 branches.
* **v2** — actuation supervision: new branches ``actuation-pending``,
  ``actuation-failed``, ``retry-backoff``, ``watchdog-escalation`` and
  ``scale-down-clamped``, plus the optional integer ``attempt`` field
  (which actuation attempt a record belongs to). v1 files remain
  readable (``attempt`` defaults to null); a v1 record using a v2-only
  branch or the ``attempt`` field is a validation error.
* **v3** — stateful migration lifecycle: new branches
  ``migration-pending``, ``migration-failed``, ``migration-rolled-back``
  and ``migration-deferred``, plus the optional integer ``state_bytes``
  field (migrated/assessed state volume). v1/v2 files remain readable; a
  pre-v3 record using a v3-only branch or ``state_bytes`` is a
  validation error. Writers emit the lowest schema a record needs (≥2):
  a record only stamps ``schema: 3`` when it uses a v3 branch or sets
  ``state_bytes`` — and only then carries the ``state_bytes`` key — so
  stateless traces stay byte-identical to pre-v3 output.
* **v4** — shared-cluster admission: new branches ``admission-denied``
  (a scale-up the cluster's admission controller refused — quota or
  capacity) and ``preempted`` (a task force-stopped by arbitration in
  favor of another job). No new fields. Lowest-schema emission applies
  as before, so single-job traces that never hit admission stay
  byte-identical to pre-v4 output; a pre-v4 record using a v4-only
  branch is a validation error.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterable, Iterator, List, Optional

#: bump when the record schema changes incompatibly
TRACE_SCHEMA_VERSION = 4

#: the schema a record without any v3 feature is written as
_BASE_SCHEMA_VERSION = 2

#: the schema a record with v3 features but no v4 branch is written as
_MIGRATION_SCHEMA_VERSION = 3

#: schema versions this module can still read (older are strict subsets)
SUPPORTED_TRACE_SCHEMAS = frozenset({1, 2, 3, TRACE_SCHEMA_VERSION})

# --- branch names (which part of Algorithm 2 produced the record) -------
BRANCH_REBALANCE = "rebalance"
BRANCH_BOTTLENECK = "bottleneck"
BRANCH_STALE_SKIP = "stale-skip"
BRANCH_NO_MODEL_SKIP = "no-model-skip"
BRANCH_INFEASIBLE = "infeasible"
BRANCH_INACTIVE = "inactive"
BRANCH_COOLDOWN = "cooldown-suppressed"
BRANCH_UNRESOLVABLE = "unresolvable"

# --- v2 branches (actuation supervision lifecycle) ----------------------
BRANCH_ACTUATION_PENDING = "actuation-pending"
BRANCH_ACTUATION_FAILED = "actuation-failed"
BRANCH_RETRY_BACKOFF = "retry-backoff"
BRANCH_WATCHDOG_ESCALATION = "watchdog-escalation"
BRANCH_SCALE_DOWN_CLAMPED = "scale-down-clamped"

V1_BRANCHES = frozenset({
    BRANCH_REBALANCE,
    BRANCH_BOTTLENECK,
    BRANCH_STALE_SKIP,
    BRANCH_NO_MODEL_SKIP,
    BRANCH_INFEASIBLE,
    BRANCH_INACTIVE,
    BRANCH_COOLDOWN,
    BRANCH_UNRESOLVABLE,
})

V2_BRANCHES = frozenset({
    BRANCH_ACTUATION_PENDING,
    BRANCH_ACTUATION_FAILED,
    BRANCH_RETRY_BACKOFF,
    BRANCH_WATCHDOG_ESCALATION,
    BRANCH_SCALE_DOWN_CLAMPED,
})

# --- v3 branches (stateful migration lifecycle) -------------------------
BRANCH_MIGRATION_PENDING = "migration-pending"
BRANCH_MIGRATION_FAILED = "migration-failed"
BRANCH_MIGRATION_ROLLED_BACK = "migration-rolled-back"
BRANCH_MIGRATION_DEFERRED = "migration-deferred"

V3_BRANCHES = frozenset({
    BRANCH_MIGRATION_PENDING,
    BRANCH_MIGRATION_FAILED,
    BRANCH_MIGRATION_ROLLED_BACK,
    BRANCH_MIGRATION_DEFERRED,
})

# --- v4 branches (shared-cluster admission) -----------------------------
BRANCH_ADMISSION_DENIED = "admission-denied"
BRANCH_PREEMPTED = "preempted"

V4_BRANCHES = frozenset({
    BRANCH_ADMISSION_DENIED,
    BRANCH_PREEMPTED,
})

BRANCHES = V1_BRANCHES | V2_BRANCHES | V3_BRANCHES | V4_BRANCHES

#: the frozen field order of the JSONL schema (append-only by policy;
#: ``attempt`` was appended in v2, ``state_bytes`` in v3 — the latter is
#: omitted from serialized records when null, see TraceRecord.to_dict)
TRACE_FIELDS = (
    "schema",
    "time",
    "job",
    "round",
    "constraint",
    "vertex",
    "branch",
    "budget",
    "measured_wait",
    "predicted_wait",
    "e",
    "utilization",
    "utilization_at_target",
    "p_before",
    "p_target",
    "p_applied",
    "detail",
    "attempt",
    "state_bytes",
)


def finite_or_none(value: Optional[float]) -> Optional[float]:
    """Map inf/nan to None so records stay strict-JSON serializable."""
    if value is None:
        return None
    if math.isinf(value) or math.isnan(value):
        return None
    return float(value)


class TraceRecord:
    """One structured scaler-decision row (one constraint x one vertex).

    Skip branches that apply to a whole constraint (or a whole round, for
    the inactivity phase) carry ``vertex=None``; action branches carry
    the per-vertex model terms.
    """

    __slots__ = (
        "time", "job", "round", "constraint", "vertex", "branch", "budget",
        "measured_wait", "predicted_wait", "e", "utilization",
        "utilization_at_target", "p_before", "p_target", "p_applied", "detail",
        "attempt", "state_bytes",
    )

    def __init__(
        self,
        time: float,
        constraint: str,
        branch: str,
        vertex: Optional[str] = None,
        job: str = "",
        round: int = 0,
        budget: Optional[float] = None,
        measured_wait: Optional[float] = None,
        predicted_wait: Optional[float] = None,
        e: Optional[float] = None,
        utilization: Optional[float] = None,
        utilization_at_target: Optional[float] = None,
        p_before: Optional[int] = None,
        p_target: Optional[int] = None,
        p_applied: Optional[int] = None,
        detail: str = "",
        attempt: Optional[int] = None,
        state_bytes: Optional[int] = None,
    ) -> None:
        if branch not in BRANCHES:
            raise ValueError(f"unknown trace branch {branch!r} (have: {sorted(BRANCHES)})")
        self.time = float(time)
        self.job = job
        self.round = round
        self.constraint = constraint
        self.vertex = vertex
        self.branch = branch
        self.budget = finite_or_none(budget)
        self.measured_wait = finite_or_none(measured_wait)
        self.predicted_wait = finite_or_none(predicted_wait)
        self.e = finite_or_none(e)
        self.utilization = finite_or_none(utilization)
        self.utilization_at_target = finite_or_none(utilization_at_target)
        self.p_before = p_before
        self.p_target = p_target
        self.p_applied = p_applied
        self.detail = detail
        self.attempt = attempt
        self.state_bytes = state_bytes

    def schema_version(self) -> int:
        """The lowest schema this record needs (the version it is written as)."""
        if self.branch in V4_BRANCHES:
            return TRACE_SCHEMA_VERSION
        if self.branch in V3_BRANCHES or self.state_bytes is not None:
            return _MIGRATION_SCHEMA_VERSION
        return _BASE_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        """The record as a dict in the frozen schema field order.

        Records are stamped with the lowest schema they need, and the
        v3-only ``state_bytes`` key is omitted when null — so traces of
        stateless runs stay byte-identical to pre-v3 output.
        """
        out: Dict[str, object] = {"schema": self.schema_version()}
        for field in TRACE_FIELDS[1:-1]:
            out[field] = getattr(self, field)
        if self.state_bytes is not None:
            out["state_bytes"] = self.state_bytes
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceRecord":
        """Parse a dict produced by :meth:`to_dict` (schema-checked)."""
        schema = data.get("schema")
        if schema not in SUPPORTED_TRACE_SCHEMAS:
            raise ValueError(
                f"unsupported trace schema {schema!r} "
                f"(supported: {sorted(SUPPORTED_TRACE_SCHEMAS)})"
            )
        kwargs = {field: data[field] for field in TRACE_FIELDS[1:] if field in data}
        missing = [f for f in ("time", "constraint", "branch") if f not in kwargs]
        if missing:
            raise ValueError(f"trace record missing required fields: {missing}")
        return cls(**kwargs)

    def to_json(self) -> str:
        """One strict-JSON line (``allow_nan=False`` guards the schema)."""
        return json.dumps(self.to_dict(), allow_nan=False)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = f" p{self.p_before}->{self.p_target}" if self.p_target is not None else ""
        return (
            f"TraceRecord(t={self.time:.1f}, {self.constraint}/"
            f"{self.vertex or '*'}, {self.branch}{target})"
        )


class DecisionTrace:
    """An append-only log of :class:`TraceRecord` rows for one job."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        #: scaler rounds observed (including inactive ones)
        self.rounds = 0

    def append(self, record: TraceRecord) -> None:
        """Add one record."""
        self.records.append(record)

    def extend(self, records: Iterable[TraceRecord]) -> None:
        """Add several records."""
        self.records.extend(records)

    def last(self, n: int) -> List[TraceRecord]:
        """The most recent ``n`` records."""
        return self.records[-n:]

    def for_vertex(self, vertex: str) -> List[TraceRecord]:
        """All records about one vertex."""
        return [r for r in self.records if r.vertex == vertex]

    def for_constraint(self, constraint: str) -> List[TraceRecord]:
        """All records about one constraint."""
        return [r for r in self.records if r.constraint == constraint]

    def branches(self) -> Dict[str, int]:
        """Record count per branch."""
        out: Dict[str, int] = {}
        for record in self.records:
            out[record.branch] = out.get(record.branch, 0) + 1
        return out

    def write_jsonl(self, path: str) -> str:
        """Write all records as JSONL; returns the path."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for record in self.records:
                f.write(record.to_json() + "\n")
        return path

    @staticmethod
    def read_jsonl(path: str) -> "DecisionTrace":
        """Load a trace written by :meth:`write_jsonl`."""
        trace = DecisionTrace()
        with open(path, "r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    trace.append(TraceRecord.from_dict(json.loads(line)))
        if trace.records:
            trace.rounds = max(r.round for r in trace.records)
        return trace

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DecisionTrace({len(self.records)} records, {self.rounds} rounds)"


# ----------------------------------------------------------------------
# schema validation (``python -m repro trace --check`` and CI)
# ----------------------------------------------------------------------

_NUMERIC_OPTIONAL = (
    "budget", "measured_wait", "predicted_wait", "e",
    "utilization", "utilization_at_target",
)
_INT_OPTIONAL = ("p_before", "p_target", "p_applied", "attempt", "state_bytes")


def validate_record_dict(data: Dict[str, object], line: int = 0) -> List[str]:
    """Schema errors of one parsed record dict (empty list = valid)."""
    where = f"line {line}: " if line else ""
    errors: List[str] = []
    schema = data.get("schema")
    if schema not in SUPPORTED_TRACE_SCHEMAS:
        errors.append(
            f"{where}schema must be one of {sorted(SUPPORTED_TRACE_SCHEMAS)} "
            f"(got {schema!r})"
        )
    unknown = [k for k in data if k not in TRACE_FIELDS]
    if unknown:
        errors.append(f"{where}unknown fields {unknown}")
    if not isinstance(data.get("time"), (int, float)):
        errors.append(f"{where}time must be a number")
    if not isinstance(data.get("constraint"), str) or not data.get("constraint"):
        errors.append(f"{where}constraint must be a non-empty string")
    branch = data.get("branch")
    if branch not in BRANCHES:
        errors.append(f"{where}branch {branch!r} not in {sorted(BRANCHES)}")
    elif schema == 1 and branch in V2_BRANCHES:
        errors.append(f"{where}branch {branch!r} requires schema >= 2")
    elif schema in (1, 2) and branch in V3_BRANCHES:
        errors.append(f"{where}branch {branch!r} requires schema >= 3")
    elif schema in (1, 2, 3) and branch in V4_BRANCHES:
        errors.append(f"{where}branch {branch!r} requires schema >= 4")
    if schema == 1 and data.get("attempt") is not None:
        errors.append(f"{where}attempt field requires schema >= 2")
    if schema in (1, 2) and data.get("state_bytes") is not None:
        errors.append(f"{where}state_bytes field requires schema >= 3")
    vertex = data.get("vertex")
    if vertex is not None and not isinstance(vertex, str):
        errors.append(f"{where}vertex must be a string or null")
    for field in _NUMERIC_OPTIONAL:
        value = data.get(field)
        if value is not None and not isinstance(value, (int, float)):
            errors.append(f"{where}{field} must be a number or null")
    for field in _INT_OPTIONAL:
        value = data.get(field)
        if value is not None and not isinstance(value, int):
            errors.append(f"{where}{field} must be an integer or null")
    if branch in (BRANCH_REBALANCE, BRANCH_BOTTLENECK) and vertex is None:
        errors.append(f"{where}{branch} records must name a vertex")
    if branch in V2_BRANCHES and vertex is None:
        errors.append(f"{where}{branch} records must name a vertex")
    if branch in V3_BRANCHES and vertex is None:
        errors.append(f"{where}{branch} records must name a vertex")
    if branch in V4_BRANCHES and vertex is None:
        errors.append(f"{where}{branch} records must name a vertex")
    return errors


def validate_trace_file(path: str) -> List[str]:
    """Schema errors of a ``trace.jsonl`` file (empty list = valid)."""
    errors: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for number, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"line {number}: not valid JSON ({exc})")
                    continue
                if not isinstance(data, dict):
                    errors.append(f"line {number}: record must be a JSON object")
                    continue
                errors.extend(validate_record_dict(data, line=number))
    except OSError as exc:
        errors.append(f"cannot read {path}: {exc}")
    return errors
