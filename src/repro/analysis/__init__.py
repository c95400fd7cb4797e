"""Analytic queueing theory used to reason about (and validate) the engine.

The paper's latency model rests on Kingman's GI/G/1 heavy-traffic
approximation; this subpackage collects the surrounding closed forms —
M/M/1, M/D/1, M/G/1 (Pollaczek–Khinchine), the Allen–Cunneen
approximation, Erlang C for M/M/c — plus helpers to predict end-to-end
latency of a pipeline analytically. The test suite uses these formulas
as ground truth against the discrete-event engine, which is what makes
the substrate trustworthy for reproducing the paper's queueing effects.
"""

from repro import _lazy_exports

_EXPORTS = {
    "mm1_waiting_time": "repro.analysis.queueing",
    "mm1_queue_length": "repro.analysis.queueing",
    "md1_waiting_time": "repro.analysis.queueing",
    "mg1_waiting_time": "repro.analysis.queueing",
    "allen_cunneen_waiting_time": "repro.analysis.queueing",
    "erlang_c": "repro.analysis.queueing",
    "mmc_waiting_time": "repro.analysis.queueing",
    "PipelineStage": "repro.analysis.pipeline",
    "predict_pipeline_latency": "repro.analysis.pipeline",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
