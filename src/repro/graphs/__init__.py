"""Job-graph and runtime-graph model (paper Sec. II-A).

A *job graph* is the user-supplied DAG of :class:`JobVertex` objects (each
carrying a UDF factory and current/min/max degrees of parallelism)
connected by :class:`JobEdge` objects (each carrying a wiring pattern).
At deployment the engine expands it into a *runtime graph* of tasks and
channels (see :mod:`repro.engine`).

A :class:`JobSequence` is an alternating tuple of connected vertices and
edges over which latency constraints are declared.
"""

from repro import _lazy_exports

_EXPORTS = {
    "JobGraph": "repro.graphs.job_graph",
    "JobVertex": "repro.graphs.job_graph",
    "JobEdge": "repro.graphs.job_graph",
    "JobSequence": "repro.graphs.sequences",
    "Partitioner": "repro.graphs.partitioning",
    "RoundRobinPartitioner": "repro.graphs.partitioning",
    "KeyPartitioner": "repro.graphs.partitioning",
    "BroadcastPartitioner": "repro.graphs.partitioning",
    "make_partitioner": "repro.graphs.partitioning",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
