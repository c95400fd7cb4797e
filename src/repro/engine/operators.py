"""Ready-made streaming operators on top of the UDF model.

* :class:`UnionTagUDF` — tags payloads with their origin (for merged
  streams sharing one input queue).

Windowed aggregates are :class:`~repro.engine.udf.WindowedAggregateUDF`
instances; stateful operators are declared through
:meth:`repro.builder.PipelineBuilder.stateful`.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.udf import UDF
from repro.simulation.randomness import Distribution


class UnionTagUDF(UDF):
    """Wrap payloads as ``(tag, payload)`` so merged streams stay apart."""

    def __init__(self, tag: object, service_dist: Optional[Distribution] = None) -> None:
        super().__init__(service_dist)
        self.tag = tag

    def process(self, payload: object):
        return ((self.tag, payload),)
