"""The simulated Nephele-style stream processing engine (substrate).

This subpackage implements the execution engine the paper's strategy runs
on: a master/worker SPE whose runtime graph consists of tasks (single-
server queueing stations executing UDFs) connected by channels (output
buffers with a pluggable batching strategy, a network delay model and
credit-based backpressure), placed in CPU slots of leased worker nodes.

The facade is :class:`StreamProcessingEngine` configured by
:class:`EngineConfig`; preset configurations mirror the paper's four
motivation configurations (Storm, Nephele-IF, Nephele-16KiB,
Nephele-<deadline>).
"""

from repro import _lazy_exports

_EXPORTS = {
    "DataItem": "repro.engine.items",
    "UDF": "repro.engine.udf",
    "SourceUDF": "repro.engine.udf",
    "MapUDF": "repro.engine.udf",
    "FilterUDF": "repro.engine.udf",
    "FlatMapUDF": "repro.engine.udf",
    "WindowedAggregateUDF": "repro.engine.udf",
    "SinkUDF": "repro.engine.udf",
    "BoundedQueue": "repro.engine.queues",
    "KeyedAggregateUDF": "repro.engine.operators",
    "RateEstimatorUDF": "repro.engine.operators",
    "SampleUDF": "repro.engine.operators",
    "UnionTagUDF": "repro.engine.operators",
    "tumbling_count": "repro.engine.operators",
    "tumbling_mean": "repro.engine.operators",
    "tumbling_sum": "repro.engine.operators",
    "tumbling_top_k": "repro.engine.operators",
    "BatchingStrategy": "repro.engine.batching",
    "InstantFlush": "repro.engine.batching",
    "FixedSizeBatching": "repro.engine.batching",
    "AdaptiveDeadlineBatching": "repro.engine.batching",
    "RuntimeChannel": "repro.engine.channel",
    "NetworkModel": "repro.engine.channel",
    "RuntimeTask": "repro.engine.task",
    "WorkerNode": "repro.engine.worker",
    "ResourceManager": "repro.engine.resources",
    "InsufficientResourcesError": "repro.engine.resources",
    "RuntimeGraph": "repro.engine.runtime",
    "RuntimeVertex": "repro.engine.runtime",
    "Scheduler": "repro.engine.scheduler",
    "EngineConfig": "repro.engine.engine",
    "StreamProcessingEngine": "repro.engine.engine",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
