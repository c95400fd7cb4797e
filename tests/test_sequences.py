"""Unit tests for job sequences."""

import pytest

from repro.engine.udf import MapUDF
from repro.graphs.job_graph import GraphError, JobGraph
from repro.graphs.sequences import JobSequence


def udf_factory():
    return MapUDF(lambda x: x)


@pytest.fixture
def chain():
    graph = JobGraph("chain")
    a = graph.add_vertex("a", udf_factory)
    b = graph.add_vertex("b", udf_factory)
    c = graph.add_vertex("c", udf_factory)
    graph.connect(a, b)
    graph.connect(b, c)
    return graph


class TestConstruction:
    def test_vertex_only_sequence(self, chain):
        js = JobSequence([chain.vertex("b")])
        assert js.vertex_names() == ["b"]
        assert [e.name for e in js.edges] == []

    def test_edge_only_sequence(self, chain):
        edge = chain.edge_between("a", "b")
        js = JobSequence([edge])
        assert [e.name for e in js.edges] == ["a->b"]

    def test_alternating_sequence(self, chain):
        e1 = chain.edge_between("a", "b")
        e2 = chain.edge_between("b", "c")
        js = JobSequence([e1, chain.vertex("b"), e2])
        assert js.vertex_names() == ["b"]
        assert [e.name for e in js.edges] == ["a->b", "b->c"]
        assert len(js) == 3

    def test_empty_rejected(self):
        with pytest.raises(GraphError):
            JobSequence([])

    def test_two_vertices_in_a_row_rejected(self, chain):
        with pytest.raises(GraphError):
            JobSequence([chain.vertex("a"), chain.vertex("b")])

    def test_two_edges_in_a_row_rejected(self, chain):
        with pytest.raises(GraphError):
            JobSequence([chain.edge_between("a", "b"), chain.edge_between("b", "c")])

    def test_disconnected_edge_rejected(self, chain):
        with pytest.raises(GraphError):
            JobSequence([chain.vertex("a"), chain.edge_between("b", "c")])

    def test_edge_vertex_mismatch_rejected(self, chain):
        with pytest.raises(GraphError):
            JobSequence([chain.edge_between("a", "b"), chain.vertex("c")])


class TestFromNames:
    def test_simple_path(self, chain):
        js = JobSequence.from_names(chain, ["a", "b", "c"])
        assert js.vertex_names() == ["a", "b", "c"]
        assert [e.name for e in js.edges] == ["a->b", "b->c"]

    def test_leading_edge(self, chain):
        js = JobSequence.from_names(chain, ["b"], leading_edge=True)
        assert [e.name for e in js.edges] == ["a->b"]
        assert isinstance(js.elements[0], type(chain.edge_between("a", "b")))

    def test_trailing_edge(self, chain):
        js = JobSequence.from_names(chain, ["b"], trailing_edge=True)
        assert [e.name for e in js.edges] == ["b->c"]

    def test_both_edges(self, chain):
        js = JobSequence.from_names(chain, ["b"], leading_edge=True, trailing_edge=True)
        assert [e.name for e in js.edges] == ["a->b", "b->c"]
        assert js.name == "(e:a->b, b, e:b->c)"

    def test_leading_edge_ambiguous_rejected(self):
        graph = JobGraph("merge")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        c = graph.add_vertex("c", udf_factory)
        graph.connect(a, c)
        graph.connect(b, c)
        with pytest.raises(GraphError):
            JobSequence.from_names(graph, ["c"], leading_edge=True)

    def test_missing_edge_between_names(self, chain):
        with pytest.raises(KeyError):
            JobSequence.from_names(chain, ["a", "c"])

    def test_empty_names_rejected(self, chain):
        with pytest.raises(GraphError):
            JobSequence.from_names(chain, [])


class TestAccessors:
    def test_contains(self, chain):
        js = JobSequence.from_names(chain, ["a", "b"])
        assert chain.vertex("a") in js
        assert chain.vertex("c") not in js

    def test_elastic_vertices(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory, parallelism=2, min_parallelism=1, max_parallelism=4)
        graph.connect(a, b)
        js = JobSequence.from_names(graph, ["a", "b"])
        assert [v.name for v in js.vertices if v.elastic] == ["b"]
