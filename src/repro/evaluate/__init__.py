"""Tolerance-based continuous evaluation over sweep results.

The sweep orchestrator emits byte-identical ``aggregate.json`` files;
this package turns them into a gated, self-verifying evaluation
platform in the spirit of performance-test baseline/tolerance harnesses:

* :mod:`repro.evaluate.metrics` extracts per-metric value series
  (constraint fulfillment and violation rate, per-feed latency,
  task-seconds, parallelism, CPU utilization) from an aggregate and
  condenses each into the canonical ``avg/min/max/p50/p95/count``
  statistics, tagged with a regression direction;
* :mod:`repro.evaluate.tolerance` defines the per-metric, per-statistic
  tolerance spec (absolute/relative modes, inclusive checks) and the
  suggested-empirical-tolerance inversion;
* :mod:`repro.evaluate.baseline` pins known-good statistics plus their
  tolerances into committed ``baselines/*.json`` files;
* :mod:`repro.evaluate.compare` runs candidates against a baseline into
  a deterministic machine-readable :class:`Comparison`;
* :mod:`repro.evaluate.render` renders the comparison as an ASCII
  box-plot report or a standalone HTML page;
* :mod:`repro.evaluate.scoreboard` condenses a policy-tournament
  aggregate (a sweep with a ``policies`` axis) into the per-policy
  violation-rate / task-hours / reaction-time scoreboard behind
  ``repro compare --scoreboard``;
* :mod:`repro.evaluate.history` indexes exported run artifacts
  (manifests, shard checkpoints, aggregates) under stable ids so
  comparisons can address prior runs by id instead of raw paths.

CLI: ``python -m repro compare RUN [RUN ...] [--baseline B]
[--tolerance T] [--suggest]`` and ``python -m repro runs --root DIR``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "Baseline": "repro.evaluate.baseline",
    "Candidate": "repro.evaluate.compare",
    "Comparison": "repro.evaluate.compare",
    "DEFAULT_TOLERANCE": "repro.evaluate.baseline",
    "MetricSeries": "repro.evaluate.metrics",
    "RunEntry": "repro.evaluate.history",
    "RunIndex": "repro.evaluate.history",
    "StatCheck": "repro.evaluate.compare",
    "ToleranceSpec": "repro.evaluate.tolerance",
    "build_scoreboard": "repro.evaluate.scoreboard",
    "compare_runs": "repro.evaluate.compare",
    "extract_metrics": "repro.evaluate.metrics",
    "limit_value": "repro.evaluate.tolerance",
    "metric_direction": "repro.evaluate.metrics",
    "render_comparison": "repro.evaluate.render",
    "render_comparison_html": "repro.evaluate.render",
    "render_scoreboard": "repro.evaluate.scoreboard",
    "suggest_from_runs": "repro.evaluate.compare",
    "suggest_tolerance": "repro.evaluate.tolerance",
    "within_tolerance": "repro.evaluate.tolerance",
    "write_comparison_html": "repro.evaluate.render",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
