"""Partial and global summaries (paper Sec. IV-C1).

Each QoS manager aggregates its measurement data into a *partial
summary*: per job vertex the tuple ``(l_jv, S̄_jv, c_S, Ā_jv, c_A, λ_jv)``
and per job edge ``(l_je, obl_je)``, each averaged over the tasks /
channels the manager observes (paper Eq. 2). The master merges the
partial summaries — weighted by how many tasks/channels each one covers —
into the *global summary* that initializes the latency model.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class VertexSummary:
    """Summary tuple for one job vertex (paper Sec. IV-C1)."""

    __slots__ = ("vertex_name", "task_latency", "service_mean", "service_cv",
                 "interarrival_mean", "interarrival_cv", "arrival_rate", "n_tasks",
                 "staleness")

    def __init__(
        self,
        vertex_name: str,
        task_latency: float,
        service_mean: float,
        service_cv: float,
        interarrival_mean: float,
        interarrival_cv: float,
        n_tasks: int,
        staleness: float = 0.0,
    ) -> None:
        self.vertex_name = vertex_name
        #: mean task latency ``l_jv`` (seconds)
        self.task_latency = task_latency
        #: mean service time ``S̄_jv`` (seconds)
        self.service_mean = service_mean
        #: coefficient of variation ``c_S``
        self.service_cv = service_cv
        #: mean interarrival time ``Ā_jv`` (seconds); 0 means "no arrivals"
        self.interarrival_mean = interarrival_mean
        #: coefficient of variation ``c_A``
        self.interarrival_cv = interarrival_cv
        #: per-task arrival rate ``λ_jv = 1/Ā_jv`` (items/second)
        self.arrival_rate = 1.0 / interarrival_mean if interarrival_mean > 0 else 0.0
        #: number of tasks averaged into this summary (merge weight)
        self.n_tasks = n_tasks
        #: seconds since the underlying windows last received fresh
        #: samples (> 0 during measurement dropouts; the scaler skips
        #: constraints whose vertices exceed its staleness threshold)
        self.staleness = staleness

    @property
    def utilization(self) -> float:
        """Task utilization ``ρ = λ · S̄`` (Table I, derived)."""
        return self.arrival_rate * self.service_mean

    def __repr__(self) -> str:
        return (
            f"VertexSummary({self.vertex_name!r}, l={self.task_latency:.6f}, "
            f"S={self.service_mean:.6f}, rho={self.utilization:.3f}, n={self.n_tasks})"
        )


class EdgeSummary:
    """Summary tuple for one job edge: ``(l_je, obl_je)``."""

    __slots__ = ("edge_name", "channel_latency", "output_batch_latency", "n_channels")

    def __init__(
        self,
        edge_name: str,
        channel_latency: float,
        output_batch_latency: float,
        n_channels: int,
    ) -> None:
        self.edge_name = edge_name
        self.channel_latency = channel_latency
        self.output_batch_latency = output_batch_latency
        self.n_channels = n_channels

    @property
    def queueing_time(self) -> float:
        """Measured consumer-side wait ``W = l_je − obl_je`` (Eq. 4 numerator)."""
        return max(0.0, self.channel_latency - self.output_batch_latency)

    def __repr__(self) -> str:
        return (
            f"EdgeSummary({self.edge_name!r}, l={self.channel_latency:.6f}, "
            f"obl={self.output_batch_latency:.6f}, n={self.n_channels})"
        )


class GlobalSummary:
    """The master's merged view over all partial summaries."""

    def __init__(self, timestamp: float) -> None:
        self.timestamp = timestamp
        self.vertices: Dict[str, VertexSummary] = {}
        self.edges: Dict[str, EdgeSummary] = {}

    def vertex(self, name: str) -> Optional[VertexSummary]:
        """Vertex summary by name (``None`` if unmeasured this round)."""
        return self.vertices.get(name)

    def edge(self, name: str) -> Optional[EdgeSummary]:
        """Edge summary by name (``None`` if unmeasured this round)."""
        return self.edges.get(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GlobalSummary(t={self.timestamp:.1f}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)})"
        )


def _weighted_mean(pairs: Iterable) -> float:
    total_weight = 0.0
    total = 0.0
    for value, weight in pairs:
        total += value * weight
        total_weight += weight
    return total / total_weight if total_weight > 0 else 0.0


def merge_partial_summaries(
    timestamp: float,
    partials: List["PartialSummary"],
) -> GlobalSummary:
    """Merge partial summaries into the global summary (weighted means)."""
    merged = GlobalSummary(timestamp)
    vertex_groups: Dict[str, List[VertexSummary]] = {}
    edge_groups: Dict[str, List[EdgeSummary]] = {}
    for partial in partials:
        for vs in partial.vertices.values():
            vertex_groups.setdefault(vs.vertex_name, []).append(vs)
        for es in partial.edges.values():
            edge_groups.setdefault(es.edge_name, []).append(es)
    for name, group in vertex_groups.items():
        weights = [g.n_tasks for g in group]
        merged.vertices[name] = VertexSummary(
            name,
            task_latency=_weighted_mean((g.task_latency, w) for g, w in zip(group, weights)),
            service_mean=_weighted_mean((g.service_mean, w) for g, w in zip(group, weights)),
            service_cv=_weighted_mean((g.service_cv, w) for g, w in zip(group, weights)),
            interarrival_mean=_weighted_mean(
                (g.interarrival_mean, w) for g, w in zip(group, weights)
            ),
            interarrival_cv=_weighted_mean(
                (g.interarrival_cv, w) for g, w in zip(group, weights)
            ),
            n_tasks=sum(weights),
            # Conservative merge: one stale partial makes the vertex stale.
            staleness=max(g.staleness for g in group),
        )
    for name, group in edge_groups.items():
        weights = [g.n_channels for g in group]
        merged.edges[name] = EdgeSummary(
            name,
            channel_latency=_weighted_mean(
                (g.channel_latency, w) for g, w in zip(group, weights)
            ),
            output_batch_latency=_weighted_mean(
                (g.output_batch_latency, w) for g, w in zip(group, weights)
            ),
            n_channels=sum(weights),
        )
    return merged


class PartialSummary:
    """One QoS manager's summary over the tasks/channels it observes.

    Structurally identical to :class:`GlobalSummary` (the paper makes the
    same observation); kept as its own type for API clarity.
    """

    def __init__(self, timestamp: float) -> None:
        self.timestamp = timestamp
        self.vertices: Dict[str, VertexSummary] = {}
        self.edges: Dict[str, EdgeSummary] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartialSummary(t={self.timestamp:.1f}, "
            f"|V|={len(self.vertices)}, |E|={len(self.edges)})"
        )
