"""repro — Elastic Stream Processing with Latency Guarantees (ICDCS 2015).

A faithful, laptop-scale reproduction of Lohrmann, Janacik & Kao's
reactive elastic-scaling strategy for latency-constrained stream
processing, together with the simulated Nephele-style stream processing
engine it runs on.

Quickstart
----------
>>> from repro import (EngineConfig, StreamProcessingEngine,
...                    build_primetester_job, PrimeTesterParams)
>>> graph, profile = build_primetester_job(PrimeTesterParams())
>>> engine = StreamProcessingEngine(EngineConfig.nephele_adaptive())
>>> job = engine.submit(graph)
>>> engine.run(30.0)

See ``examples/`` for complete scenarios (including the elastic
PrimeTester and TwitterSentiment evaluations) and ``DESIGN.md`` for the
architecture and the paper-to-module map.
"""

import sys
from types import ModuleType

__version__ = "1.0.0"


class _Package(ModuleType):
    """A package whose exported names are never rebound to a submodule.

    The import system binds a submodule on its package when anything
    first loads it. ``repro.core.rebalance`` is a submodule *and* an
    exported function; the function keeps the name, so ``from repro.core
    import rebalance`` does not depend on what was imported before.
    """

    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and name in self.__all__:
            value = getattr(value, name)
        super().__setattr__(name, value)


def _lazy_exports(package, exports):
    """PEP 562 ``__getattr__``, ``__dir__`` and ``__all__`` of a package.

    ``exports`` maps each public name to the module defining it. That
    module is imported when the name is first read and the object kept
    in the package's globals: a process compiles what its job uses.
    Any other name is tried as a submodule, so ``import repro`` followed
    by ``repro.obs.export_run`` needs no ``import repro.obs``.
    """
    module = sys.modules[package]
    module.__class__ = _Package
    namespace = module.__dict__

    def __getattr__(name):
        # __import__, not importlib.import_module: ``python -X importtime``
        # times only the former, and this is where the time goes
        source = exports.get(name)
        if source is not None:
            __import__(source)
            value = namespace[name] = getattr(sys.modules[source], name)
            return value
        submodule = f"{package}.{name}"
        try:
            __import__(submodule)
        except ModuleNotFoundError as exc:
            if exc.name != submodule:
                raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        return sys.modules[submodule]

    def __dir__():
        return sorted(set(namespace).union(exports))

    return __getattr__, __dir__, list(exports)


_EXPORTS = {
    "LatencyConstraint": "repro.core.constraints",
    "ConstraintTracker": "repro.core.constraints",
    "kingman_waiting_time": "repro.core.latency_model",
    "VertexModel": "repro.core.latency_model",
    "SequenceLatencyModel": "repro.core.latency_model",
    "build_sequence_model": "repro.core.latency_model",
    "rebalance": "repro.core.rebalance",
    "RebalanceResult": "repro.core.rebalance",
    "find_bottlenecks": "repro.core.bottlenecks",
    "resolve_bottlenecks": "repro.core.bottlenecks",
    "ScaleReactivelyPolicy": "repro.core.scale_reactively",
    "ScalingDecision": "repro.core.scale_reactively",
    "ElasticScaler": "repro.core.elastic_scaler",
    "AdaptiveBatchingPolicy": "repro.core.batching_policy",
    "EngineConfig": "repro.engine.engine",
    "StreamProcessingEngine": "repro.engine.engine",
    "BatchingStrategy": "repro.engine.batching",
    "InstantFlush": "repro.engine.batching",
    "FixedSizeBatching": "repro.engine.batching",
    "AdaptiveDeadlineBatching": "repro.engine.batching",
    "UDF": "repro.engine.udf",
    "Emit": "repro.engine.udf",
    "SourceUDF": "repro.engine.udf",
    "MapUDF": "repro.engine.udf",
    "FilterUDF": "repro.engine.udf",
    "FlatMapUDF": "repro.engine.udf",
    "WindowedAggregateUDF": "repro.engine.udf",
    "SinkUDF": "repro.engine.udf",
    "JobGraph": "repro.graphs.job_graph",
    "JobVertex": "repro.graphs.job_graph",
    "JobEdge": "repro.graphs.job_graph",
    "JobSequence": "repro.graphs.sequences",
    "Simulator": "repro.simulation.kernel",
    "FaultInjector": "repro.simulation.faults",
    "FaultPlan": "repro.simulation.faults",
    "FaultRecord": "repro.simulation.faults",
    "TaskCrash": "repro.simulation.faults",
    "WorkerLoss": "repro.simulation.faults",
    "MeasurementDropout": "repro.simulation.faults",
    "ServiceSpike": "repro.simulation.faults",
    "ActuationFailure": "repro.simulation.faults",
    "ActuationDelay": "repro.simulation.faults",
    "MigrationFailure": "repro.simulation.faults",
    "ActuationConfig": "repro.actuation.config",
    "ActuationRequest": "repro.actuation.reconciler",
    "ReconciliationController": "repro.actuation.reconciler",
    "RandomStreams": "repro.simulation.randomness",
    "Distribution": "repro.simulation.randomness",
    "Deterministic": "repro.simulation.randomness",
    "Exponential": "repro.simulation.randomness",
    "Gamma": "repro.simulation.randomness",
    "Uniform": "repro.simulation.randomness",
    "RateProfile": "repro.workloads.rates",
    "ConstantRate": "repro.workloads.rates",
    "PiecewiseRate": "repro.workloads.rates",
    "DiurnalRate": "repro.workloads.rates",
    "PrimeTesterParams": "repro.workloads.primetester",
    "build_primetester_job": "repro.workloads.primetester",
    "is_probable_prime": "repro.workloads.primetester",
    "TwitterSentimentParams": "repro.workloads.twitter_job",
    "build_twitter_sentiment_job": "repro.workloads.twitter_job",
    "PipelineBuilder": "repro.builder",
    "BuiltPipeline": "repro.builder",
    "ObservabilityConfig": "repro.obs.config",
    "MetricsRegistry": "repro.obs.metrics",
    "DecisionTrace": "repro.obs.trace",
    "TraceRecord": "repro.obs.trace",
    "RunManifest": "repro.obs.manifest",
    "TraceRateProfile": "repro.workloads.traces",
    "generate_diurnal_trace": "repro.workloads.traces",
    "load_trace": "repro.workloads.traces",
    "save_trace": "repro.workloads.traces",
    "CpuThresholdPolicy": "repro.core.policies",
    "RateBasedPolicy": "repro.core.policies",
    "StaticPolicy": "repro.core.policies",
    "HoltForecaster": "repro.core.predictive",
    "PredictiveScaleReactivelyPolicy": "repro.core.predictive",
    "mm1_waiting_time": "repro.analysis.queueing",
    "md1_waiting_time": "repro.analysis.queueing",
    "mg1_waiting_time": "repro.analysis.queueing",
    "mmc_waiting_time": "repro.analysis.queueing",
    "allen_cunneen_waiting_time": "repro.analysis.queueing",
    "erlang_c": "repro.analysis.queueing",
    "PipelineStage": "repro.analysis.pipeline",
    "predict_pipeline_latency": "repro.analysis.pipeline",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
__all__.insert(0, "__version__")
