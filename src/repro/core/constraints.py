"""Latency constraints over job sequences (paper Sec. II-A5).

A constraint ``(js, ℓ, t)`` bounds the *mean* sequence latency of the
data items flowing through the runtime sequences of job sequence ``js``
within any window of ``t`` seconds — a statistical upper bound, not a
hard real-time guarantee.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.graphs.sequences import JobSequence
from repro.qos.summary import GlobalSummary


class LatencyConstraint:
    """A declared latency constraint ``(js, ℓ, t)``."""

    def __init__(
        self,
        sequence: JobSequence,
        bound: float,
        window: float = 10.0,
        name: Optional[str] = None,
    ) -> None:
        if bound <= 0:
            raise ValueError(f"latency bound must be positive (got {bound})")
        if window <= 0:
            raise ValueError(f"constraint window must be positive (got {window})")
        self.sequence = sequence
        #: the bound ℓ in seconds
        self.bound = bound
        #: the averaging window t in seconds
        self.window = window
        self.name = name or f"constraint({sequence.name} <= {bound * 1000:.0f}ms)"

    def measured_latency(self, summary: GlobalSummary) -> Optional[float]:
        """Mean sequence latency per the global summary.

        Sums the vertices' mean task latencies and the edges' mean channel
        latencies (the constrained quantity of Eq. 1, estimated from
        Table-I measurements). Returns ``None`` until every *edge* of the
        sequence has been measured; vertices without task-latency data
        (e.g. pure forwarders) contribute zero.
        """
        total = 0.0
        for edge in self.sequence.edges:
            es = summary.edge(edge.name)
            if es is None:
                return None
            total += es.channel_latency
        for vertex in self.sequence.vertices:
            vs = summary.vertex(vertex.name)
            if vs is not None:
                total += vs.task_latency
        return total

    def task_latency_sum(self, summary: GlobalSummary) -> float:
        """``Σ l_jv`` over the sequence's vertices (Algorithm 2, line 7)."""
        total = 0.0
        for vertex in self.sequence.vertices:
            vs = summary.vertex(vertex.name)
            if vs is not None:
                total += vs.task_latency
        return total

    def __repr__(self) -> str:
        return f"LatencyConstraint({self.sequence.name}, l={self.bound * 1000:.1f}ms)"


class ConstraintTracker:
    """Book-keeps per-adjustment-interval constraint fulfillment.

    The paper evaluates its strategy by the fraction of adjustment
    intervals in which each constraint held (e.g. "enforced ca. 91 % of
    all adjustment intervals", Sec. V-A).
    """

    def __init__(self, constraint: LatencyConstraint) -> None:
        self.constraint = constraint
        #: (timestamp, measured_latency, violated) per adjustment interval
        self.history: List[Tuple[float, float, bool]] = []
        self._skipped = 0

    def observe(self, now: float, summary: GlobalSummary) -> None:
        """Record one adjustment interval's fulfillment status."""
        measured = self.constraint.measured_latency(summary)
        if measured is None:
            self._skipped += 1
            return
        self.history.append((now, measured, measured > self.constraint.bound))

    @property
    def intervals_observed(self) -> int:
        """Number of adjustment intervals with measurements."""
        return len(self.history)

    @property
    def violations(self) -> int:
        """Number of observed intervals in which the constraint was violated."""
        return sum(1 for _, _, violated in self.history if violated)

    @property
    def fulfillment_ratio(self) -> float:
        """Fraction of observed adjustment intervals without violation."""
        if not self.history:
            return 0.0
        return 1.0 - self.violations / len(self.history)

    def __repr__(self) -> str:
        return (
            f"ConstraintTracker({self.constraint.name}, "
            f"fulfilled={self.fulfillment_ratio * 100:.1f}% of {len(self.history)})"
        )
