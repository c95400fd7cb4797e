"""Job sequences (paper Sec. II-A4).

A *job sequence* ``js`` is an n-tuple of connected job vertices and job
edges; both the first and last element may be a vertex or an edge. Latency
constraints are declared over job sequences: the constrained quantity is
the sum of task latencies over the sequence's vertices and channel
latencies over its edges.

The paper's two example constraints illustrate both boundary kinds:
``(e4, HT, e5, HTM, e6, F)`` starts and ends with an edge, while a
vertex-bounded sequence such as ``(F, e2, S)`` is equally valid.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

from repro.graphs.job_graph import GraphError, JobEdge, JobGraph, JobVertex

SequenceElement = Union[JobVertex, JobEdge]


class JobSequence:
    """An alternating, connected tuple of job vertices and job edges.

    Parameters
    ----------
    elements:
        The alternating vertices/edges, in flow order. Adjacent elements
        must be incident: an edge must be an output of the preceding
        vertex and an input of the following vertex.

    Example
    -------
    Use :meth:`from_names` to build a sequence from vertex names; edges in
    between are resolved automatically::

        js = JobSequence.from_names(graph, ["Filter", "Sentiment"],
                                    leading_edge=True, trailing_edge=True)
    """

    def __init__(self, elements: Sequence[SequenceElement]) -> None:
        if not elements:
            raise GraphError("job sequence must not be empty")
        self.elements: Tuple[SequenceElement, ...] = tuple(elements)
        self._validate()
        self.vertices: Tuple[JobVertex, ...] = tuple(
            e for e in self.elements if isinstance(e, JobVertex)
        )
        self.edges: Tuple[JobEdge, ...] = tuple(
            e for e in self.elements if isinstance(e, JobEdge)
        )
        if not self.vertices and not self.edges:
            raise GraphError("job sequence must contain at least one element")

    def _validate(self) -> None:
        previous: SequenceElement = self.elements[0]
        for element in self.elements[1:]:
            if isinstance(previous, JobVertex):
                if not isinstance(element, JobEdge):
                    raise GraphError(
                        "job sequence must alternate vertices and edges: "
                        f"two vertices in a row at {element!r}"
                    )
                if element.source is not previous:
                    raise GraphError(
                        f"edge {element.name!r} does not leave vertex {previous.name!r}"
                    )
            else:
                if not isinstance(element, JobVertex):
                    raise GraphError(
                        "job sequence must alternate vertices and edges: "
                        f"two edges in a row at {element!r}"
                    )
                if previous.target is not element:
                    raise GraphError(
                        f"edge {previous.name!r} does not enter vertex {element.name!r}"
                    )
            previous = element

    @classmethod
    def from_names(
        cls,
        graph: JobGraph,
        vertex_names: Sequence[str],
        leading_edge: bool = False,
        trailing_edge: bool = False,
    ) -> "JobSequence":
        """Build a sequence through the named vertices of ``graph``.

        Consecutive named vertices must be connected by exactly one edge.
        ``leading_edge`` / ``trailing_edge`` additionally include the
        (unique) edge entering the first vertex / leaving the last vertex,
        as in the paper's constraints that begin or end on an edge.
        """
        if not vertex_names:
            raise GraphError("need at least one vertex name")
        vertices = [graph.vertex(n) for n in vertex_names]
        elements: List[SequenceElement] = []
        if leading_edge:
            inbound = vertices[0].inputs
            if len(inbound) != 1:
                raise GraphError(
                    f"vertex {vertices[0].name!r} has {len(inbound)} inbound edges; "
                    "leading_edge requires exactly one"
                )
            elements.append(inbound[0])
        for i, vertex in enumerate(vertices):
            elements.append(vertex)
            if i + 1 < len(vertices):
                elements.append(graph.edge_between(vertex.name, vertices[i + 1].name))
        if trailing_edge:
            outbound = vertices[-1].outputs
            if len(outbound) != 1:
                raise GraphError(
                    f"vertex {vertices[-1].name!r} has {len(outbound)} outbound edges; "
                    "trailing_edge requires exactly one"
                )
            elements.append(outbound[0])
        return cls(elements)

    @property
    def name(self) -> str:
        """A human-readable name, e.g. ``(e:TS->F, F, e:F->S, S, e:S->SI)``."""
        parts = []
        for element in self.elements:
            if isinstance(element, JobVertex):
                parts.append(element.name)
            else:
                parts.append(f"e:{element.name}")
        return "(" + ", ".join(parts) + ")"

    def vertex_names(self) -> List[str]:
        """Names of the sequence's vertices, in flow order."""
        return [v.name for v in self.vertices]

    def __contains__(self, element: SequenceElement) -> bool:
        return element in self.elements

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"JobSequence{self.name}"
