"""Unit tests for the job graph model."""

import pytest

from repro.engine.udf import MapUDF
from repro.graphs.job_graph import GraphError, JobEdge, JobGraph, JobVertex


def udf_factory():
    return MapUDF(lambda x: x)


def make_diamond():
    """a -> b, a -> c, b -> d, c -> d."""
    graph = JobGraph("diamond")
    a = graph.add_vertex("a", udf_factory)
    b = graph.add_vertex("b", udf_factory)
    c = graph.add_vertex("c", udf_factory)
    d = graph.add_vertex("d", udf_factory)
    graph.connect(a, b)
    graph.connect(a, c)
    graph.connect(b, d)
    graph.connect(c, d)
    return graph


class TestJobVertex:
    def test_defaults_pin_parallelism(self):
        v = JobVertex("v", udf_factory, parallelism=4)
        assert (v.min_parallelism, v.max_parallelism) == (4, 4)
        assert not v.elastic

    def test_elastic_detection(self):
        v = JobVertex("v", udf_factory, parallelism=4, min_parallelism=1, max_parallelism=8)
        assert v.elastic

    def test_clamp(self):
        v = JobVertex("v", udf_factory, parallelism=4, min_parallelism=2, max_parallelism=8)
        assert v.clamp(1) == 2
        assert v.clamp(5) == 5
        assert v.clamp(99) == 8

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(GraphError):
            JobVertex("v", udf_factory, parallelism=0)

    def test_initial_outside_bounds_rejected(self):
        with pytest.raises(GraphError):
            JobVertex("v", udf_factory, parallelism=1, min_parallelism=2, max_parallelism=4)

    def test_min_above_max_rejected(self):
        with pytest.raises(GraphError):
            JobVertex("v", udf_factory, parallelism=3, min_parallelism=5, max_parallelism=3)


class TestJobEdge:
    def test_default_pattern(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        edge = graph.connect(a, b)
        assert edge.pattern == "round_robin"
        assert edge.name == "a->b"

    def test_key_pattern_requires_key_fn(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        with pytest.raises(GraphError):
            graph.connect(a, b, pattern="key")

    def test_unknown_pattern_rejected(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        with pytest.raises(GraphError):
            graph.connect(a, b, pattern="bogus")

    def test_broadcast_pattern_accepted(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        assert graph.connect(a, b, pattern="broadcast").pattern == "broadcast"


class TestJobGraph:
    def test_duplicate_vertex_rejected(self):
        graph = JobGraph("g")
        graph.add_vertex("a", udf_factory)
        with pytest.raises(GraphError):
            graph.add_vertex("a", udf_factory)

    def test_self_loop_rejected(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        with pytest.raises(GraphError):
            graph.connect(a, a)

    def test_cycle_rejected(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        graph.connect(a, b)
        with pytest.raises(GraphError):
            graph.connect(b, a)

    def test_foreign_vertex_rejected(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        foreign = JobVertex("x", udf_factory)
        with pytest.raises(GraphError):
            graph.connect(a, foreign)

    def test_topological_order_linear(self):
        graph = JobGraph("g")
        a = graph.add_vertex("a", udf_factory)
        b = graph.add_vertex("b", udf_factory)
        c = graph.add_vertex("c", udf_factory)
        graph.connect(a, b)
        graph.connect(b, c)
        assert [v.name for v in graph.topological_order()] == ["a", "b", "c"]

    def test_topological_order_diamond(self):
        order = [v.name for v in make_diamond().topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_sources_and_sinks(self):
        graph = make_diamond()
        assert [v.name for v in graph.sources()] == ["a"]
        assert [v.name for v in graph.sinks()] == ["d"]

    def test_vertex_lookup(self):
        graph = make_diamond()
        assert graph.vertex("b").name == "b"
        with pytest.raises(KeyError):
            graph.vertex("zz")

    def test_edge_between(self):
        graph = make_diamond()
        assert graph.edge_between("a", "b").name == "a->b"
        with pytest.raises(KeyError):
            graph.edge_between("b", "a")

    def test_validate_requires_source_and_sink(self):
        graph = JobGraph("g")
        with pytest.raises(GraphError):
            graph.validate()
        graph.add_vertex("a", udf_factory)
        graph.validate()  # a lone vertex is both source and sink

    def test_inputs_outputs_wiring(self):
        graph = make_diamond()
        a = graph.vertex("a")
        d = graph.vertex("d")
        assert len(a.outputs) == 2
        assert len(a.inputs) == 0
        assert len(d.inputs) == 2
