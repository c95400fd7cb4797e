"""The paper's primary contribution (Sec. IV).

* :mod:`repro.core.constraints` — latency-constraint semantics
  ``(js, ℓ, t)`` over job sequences (Sec. II-A5);
* :mod:`repro.core.latency_model` — the GI/G/1 / Kingman queue-wait model
  with the empirical fitting coefficient ``e_jv`` (Sec. IV-C);
* :mod:`repro.core.rebalance` — Algorithm 1, gradient descent with
  variable step size minimizing total parallelism subject to a queue-wait
  budget (Sec. IV-D);
* :mod:`repro.core.bottlenecks` — bottleneck detection and the
  ResolveBottlenecks doubling rule, Eq. 10 (Sec. IV-E);
* :mod:`repro.core.scale_reactively` — Algorithm 2, the per-constraint
  driver (Sec. IV-F);
* :mod:`repro.core.elastic_scaler` — the master-side component issuing
  scaling actions with post-scale-up inactivity;
* :mod:`repro.core.batching_policy` — adaptive output-batching budgets
  (the 80 % slack share, carried over from the authors' prior work [16]).
"""

from repro import _lazy_exports

_EXPORTS = {
    "LatencyConstraint": "repro.core.constraints",
    "ConstraintTracker": "repro.core.constraints",
    "kingman_waiting_time": "repro.core.latency_model",
    "VertexModel": "repro.core.latency_model",
    "SequenceLatencyModel": "repro.core.latency_model",
    "build_sequence_model": "repro.core.latency_model",
    "RebalanceResult": "repro.core.rebalance",
    "rebalance": "repro.core.rebalance",
    "find_bottlenecks": "repro.core.bottlenecks",
    "resolve_bottlenecks": "repro.core.bottlenecks",
    "ScaleReactivelyPolicy": "repro.core.scale_reactively",
    "ScalingDecision": "repro.core.scale_reactively",
    "ElasticScaler": "repro.core.elastic_scaler",
    "AdaptiveBatchingPolicy": "repro.core.batching_policy",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
