"""The user-facing job graph (paper Sec. II-A1).

A :class:`JobGraph` is a DAG ``JG = (JV, JE)``. Each :class:`JobVertex`
carries a UDF factory and a current / minimum / maximum degree of
parallelism; each :class:`JobEdge` carries a wiring pattern (round-robin,
key-partitioned or broadcast) that determines how the tasks of adjacent
vertices are connected in the runtime graph.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class GraphError(ValueError):
    """Raised on malformed job graphs (cycles, duplicate names, ...)."""


class JobVertex:
    """A vertex of the job graph: a UDF plus parallelism bounds.

    Parameters
    ----------
    name:
        Unique name within the job graph.
    udf_factory:
        Zero-argument callable returning a fresh UDF instance (see
        :mod:`repro.engine.udf`) for each runtime task.
    parallelism:
        Initial degree of parallelism ``p_jv``.
    min_parallelism / max_parallelism:
        Bounds ``p_jv^min`` / ``p_jv^max``. A vertex is *elastic* iff
        ``min_parallelism < max_parallelism``.
    """

    def __init__(
        self,
        name: str,
        udf_factory: Callable[[], object],
        parallelism: int = 1,
        min_parallelism: Optional[int] = None,
        max_parallelism: Optional[int] = None,
    ) -> None:
        if parallelism < 1:
            raise GraphError(f"vertex {name!r}: parallelism must be >= 1")
        self.name = name
        self.udf_factory = udf_factory
        self.parallelism = parallelism
        self.min_parallelism = min_parallelism if min_parallelism is not None else parallelism
        self.max_parallelism = max_parallelism if max_parallelism is not None else parallelism
        if not (1 <= self.min_parallelism <= self.max_parallelism):
            raise GraphError(
                f"vertex {name!r}: need 1 <= min <= max parallelism "
                f"(got {self.min_parallelism}, {self.max_parallelism})"
            )
        if not (self.min_parallelism <= parallelism <= self.max_parallelism):
            raise GraphError(
                f"vertex {name!r}: initial parallelism {parallelism} outside "
                f"[{self.min_parallelism}, {self.max_parallelism}]"
            )
        self.inputs: List["JobEdge"] = []
        self.outputs: List["JobEdge"] = []

    @property
    def elastic(self) -> bool:
        """Whether this vertex may be rescaled at runtime."""
        return self.min_parallelism < self.max_parallelism

    def clamp(self, parallelism: int) -> int:
        """Clamp ``parallelism`` into ``[min, max]``."""
        return max(self.min_parallelism, min(self.max_parallelism, parallelism))

    def __repr__(self) -> str:
        return (
            f"JobVertex({self.name!r}, p={self.parallelism}, "
            f"range=[{self.min_parallelism}, {self.max_parallelism}])"
        )


class JobEdge:
    """A directed edge of the job graph with a wiring pattern.

    ``pattern`` is one of ``"round_robin"``, ``"key"`` or ``"broadcast"``;
    ``key_fn`` is required for key partitioning and extracts the partition
    key from a payload.
    """

    PATTERNS = ("round_robin", "key", "broadcast")

    def __init__(
        self,
        source: JobVertex,
        target: JobVertex,
        pattern: str = "round_robin",
        key_fn: Optional[Callable[[object], object]] = None,
        name: Optional[str] = None,
    ) -> None:
        if pattern not in self.PATTERNS:
            raise GraphError(f"unknown wiring pattern {pattern!r}")
        if pattern == "key" and key_fn is None:
            raise GraphError("key partitioning requires a key_fn")
        self.source = source
        self.target = target
        self.pattern = pattern
        self.key_fn = key_fn
        self.name = name or f"{source.name}->{target.name}"

    def __repr__(self) -> str:
        return f"JobEdge({self.name!r}, pattern={self.pattern!r})"


class JobGraph:
    """The user-supplied DAG of job vertices and job edges.

    Example
    -------
    >>> from repro.engine.udf import MapUDF
    >>> jg = JobGraph("example")
    >>> src = jg.add_vertex("source", lambda: MapUDF(lambda x: x))
    >>> snk = jg.add_vertex("sink", lambda: MapUDF(lambda x: x))
    >>> _ = jg.connect(src, snk)
    >>> [v.name for v in jg.topological_order()]
    ['source', 'sink']
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.vertices: Dict[str, JobVertex] = {}
        self.edges: List[JobEdge] = []

    def add_vertex(
        self,
        name: str,
        udf_factory: Callable[[], object],
        parallelism: int = 1,
        min_parallelism: Optional[int] = None,
        max_parallelism: Optional[int] = None,
    ) -> JobVertex:
        """Create a new :class:`JobVertex` and add it to the graph."""
        if name in self.vertices:
            raise GraphError(f"duplicate vertex name {name!r}")
        vertex = JobVertex(name, udf_factory, parallelism, min_parallelism, max_parallelism)
        self.vertices[name] = vertex
        return vertex

    def connect(
        self,
        source: JobVertex,
        target: JobVertex,
        pattern: str = "round_robin",
        key_fn: Optional[Callable[[object], object]] = None,
    ) -> JobEdge:
        """Add a :class:`JobEdge` from ``source`` to ``target``."""
        for vertex in (source, target):
            if self.vertices.get(vertex.name) is not vertex:
                raise GraphError(f"vertex {vertex.name!r} does not belong to this graph")
        if source is target:
            raise GraphError(f"self-loop on vertex {source.name!r}")
        edge = JobEdge(source, target, pattern, key_fn)
        self.edges.append(edge)
        source.outputs.append(edge)
        target.inputs.append(edge)
        self._check_acyclic()
        return edge

    def vertex(self, name: str) -> JobVertex:
        """Look up a vertex by name (raises ``KeyError`` if absent)."""
        return self.vertices[name]

    def edge_between(self, source: str, target: str) -> JobEdge:
        """Look up the edge between two named vertices."""
        for edge in self.edges:
            if edge.source.name == source and edge.target.name == target:
                return edge
        raise KeyError(f"no edge {source!r} -> {target!r}")

    def sources(self) -> List[JobVertex]:
        """Vertices with no inbound edges."""
        return [v for v in self.vertices.values() if not v.inputs]

    def sinks(self) -> List[JobVertex]:
        """Vertices with no outbound edges."""
        return [v for v in self.vertices.values() if not v.outputs]

    def topological_order(self) -> List[JobVertex]:
        """Vertices in a deterministic topological order."""
        import heapq

        order: List[JobVertex] = []
        in_degree = {name: len(v.inputs) for name, v in self.vertices.items()}
        # A name-keyed min-heap yields the same lexicographic-among-ready
        # order the previous sort-per-iteration produced, in O(E log V).
        ready = [name for name, deg in in_degree.items() if deg == 0]
        heapq.heapify(ready)
        while ready:
            name = heapq.heappop(ready)
            vertex = self.vertices[name]
            order.append(vertex)
            for edge in vertex.outputs:
                in_degree[edge.target.name] -= 1
                if in_degree[edge.target.name] == 0:
                    heapq.heappush(ready, edge.target.name)
        if len(order) != len(self.vertices):
            raise GraphError("job graph contains a cycle")
        return order

    def _check_acyclic(self) -> None:
        self.topological_order()

    def validate(self) -> None:
        """Check structural sanity (acyclicity, at least one source/sink)."""
        self._check_acyclic()
        if not self.sources():
            raise GraphError("job graph has no source vertex")
        if not self.sinks():
            raise GraphError("job graph has no sink vertex")

    def __repr__(self) -> str:
        return f"JobGraph({self.name!r}, |JV|={len(self.vertices)}, |JE|={len(self.edges)})"

