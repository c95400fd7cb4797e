"""Unit tests for the streaming operator library."""

from repro.engine.operators import UnionTagUDF


class TestUnionTag:
    def test_union_tags(self):
        udf = UnionTagUDF("left")
        assert list(udf.process(7)) == [("left", 7)]
