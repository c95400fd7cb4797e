"""Actuation supervision: asynchronous, failure-prone, retried rescaling.

The paper assumes rescaling is instantaneous and infallible; this
subpackage models it as what it really is — an asynchronous runtime
operation with provisioning delay that can fail, time out, and need
retries. :class:`ActuationConfig` holds the knobs (delay distribution,
failure model, exponential backoff, guardrails);
:class:`ReconciliationController` converges actual parallelism to the
scaler's desired parallelism and escalates through a constraint-violation
watchdog when reconciliation lags. Attach a config with
``PipelineBuilder.actuate(...)`` or ``EngineConfig(actuation=...)``;
without one (the default), rescaling stays synchronous and byte-identical
to unsupervised behavior.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ActuationConfig": "repro.actuation.config",
    "ActuationRequest": "repro.actuation.reconciler",
    "ReconciliationController": "repro.actuation.reconciler",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
