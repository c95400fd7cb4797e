"""Structured observability: metrics, scaler decision traces, manifests.

The package is deliberately dependency-free with respect to the engine —
it only ever receives engine/job objects duck-typed, so instrumented
code can import ``repro.obs`` without cycles and observability stays a
strict add-on: disabling it leaves runs byte-identical.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ObservabilityConfig": "repro.obs.config",
    "DEFAULT_BUCKETS": "repro.obs.metrics",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "SAMPLE_EPSILON": "repro.obs.sampling",
    "MetricsSampler": "repro.obs.sampling",
    "SamplingClock": "repro.obs.sampling",
    "utilization_samples": "repro.obs.sampling",
    "BRANCH_BOTTLENECK": "repro.obs.trace",
    "BRANCH_COOLDOWN": "repro.obs.trace",
    "BRANCH_INACTIVE": "repro.obs.trace",
    "BRANCH_INFEASIBLE": "repro.obs.trace",
    "BRANCH_NO_MODEL_SKIP": "repro.obs.trace",
    "BRANCH_REBALANCE": "repro.obs.trace",
    "BRANCH_STALE_SKIP": "repro.obs.trace",
    "BRANCH_UNRESOLVABLE": "repro.obs.trace",
    "BRANCHES": "repro.obs.trace",
    "TRACE_FIELDS": "repro.obs.trace",
    "TRACE_SCHEMA_VERSION": "repro.obs.trace",
    "DecisionTrace": "repro.obs.trace",
    "TraceRecord": "repro.obs.trace",
    "finite_or_none": "repro.obs.trace",
    "validate_record_dict": "repro.obs.trace",
    "validate_trace_file": "repro.obs.trace",
    "MANIFEST_SCHEMA_VERSION": "repro.obs.manifest",
    "RunManifest": "repro.obs.manifest",
    "build_manifest": "repro.obs.manifest",
    "export_run": "repro.obs.manifest",
    "graph_hash": "repro.obs.manifest",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
