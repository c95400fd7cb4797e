"""Predictive scaling — the paper's future-work direction, implemented.

The paper's strategy is purely *reactive*: "constraint violations
resulting from large changes in emission rate cannot be avoided", and the
conclusion names better prediction as future work. This module provides
a drop-in proactive variant: :class:`PredictiveScaleReactivelyPolicy`
tracks each vertex's arrival rate with double exponential smoothing
(Holt's linear trend) and evaluates Algorithm 2 against the rate
*forecast* at a configurable horizon, so scale-ups for steep ramps are
issued one adjustment interval earlier.

``repro experiment policies`` compares it against the reactive baseline
on the PrimeTester step workload (where the paper's dominant violation is the
warm-up → increment rate jump).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.constraints import LatencyConstraint
from repro.core.policy import PolicyContext, check_knob, register_policy
from repro.core.scale_reactively import ScaleReactivelyPolicy, ScalingDecision
from repro.qos.summary import GlobalSummary, VertexSummary


class HoltForecaster:
    """Double exponential smoothing (level + trend) of a scalar series."""

    def __init__(self, alpha: float = 0.5, beta: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0 or not 0.0 <= beta <= 1.0:
            raise ValueError("need 0 < alpha <= 1 and 0 <= beta <= 1")
        self.alpha = alpha
        self.beta = beta
        self._level: Optional[float] = None
        self._trend = 0.0

    def observe(self, value: float) -> None:
        """Feed one observation."""
        if self._level is None:
            self._level = value
            self._trend = 0.0
            return
        previous = self._level
        self._level = self.alpha * value + (1.0 - self.alpha) * (self._level + self._trend)
        self._trend = self.beta * (self._level - previous) + (1.0 - self.beta) * self._trend

    def forecast(self, steps: float = 1.0) -> float:
        """Forecast ``steps`` observations ahead (clamped at >= 0)."""
        if self._level is None:
            return 0.0
        return max(0.0, self._level + steps * self._trend)

    @property
    def level(self) -> float:
        """Current smoothed level."""
        return self._level if self._level is not None else 0.0


class PredictiveScaleReactivelyPolicy(ScaleReactivelyPolicy):
    """ScaleReactively evaluated against forecast arrival rates.

    Each ``decide`` round first feeds the vertices' measured *total*
    arrival rates (per-task rate × parallelism) into per-vertex Holt
    forecasters, then rewrites the summary so each vertex carries the
    rate forecast ``horizon`` rounds ahead, and finally runs the paper's
    Algorithm 2 on the adjusted summary. Forecasts never go below the
    measurement (scale-downs stay reactive: shrinking on a predicted
    drop would gamble with the constraint).
    """

    #: registry name (overrides the reactive parent's)
    name = "predictive"

    def __init__(
        self,
        constraints: List[LatencyConstraint],
        horizon: float = 1.0,
        alpha: float = 0.5,
        beta: float = 0.3,
        **kwargs,
    ) -> None:
        super().__init__(constraints, **kwargs)
        self.horizon = check_knob("horizon", horizon, low_closed=True)
        self._alpha = check_knob("alpha", alpha, high=1.0)
        self._beta = check_knob("beta", beta, high=1.0, low_closed=True)
        self._forecasters: Dict[str, HoltForecaster] = {}
        #: (vertex, measured_total_rate, forecast_total_rate) per round
        self.forecast_log: List[Tuple[str, float, float]] = []

    def knobs(self) -> Dict[str, object]:
        """Reactive knobs plus the forecasting parameters."""
        declared = super().knobs()
        declared.update(
            {"horizon": self.horizon, "alpha": self._alpha, "beta": self._beta}
        )
        return declared

    def decide(
        self,
        summary: GlobalSummary,
        current_parallelism: Dict[str, int],
    ) -> ScalingDecision:
        """Run Algorithm 2 against the rate forecast."""
        adjusted = self._project_summary(summary, current_parallelism)
        return super().decide(adjusted, current_parallelism)

    def _project_summary(
        self,
        summary: GlobalSummary,
        current_parallelism: Dict[str, int],
    ) -> GlobalSummary:
        projected = GlobalSummary(summary.timestamp)
        projected.edges = dict(summary.edges)
        for name, vs in summary.vertices.items():
            forecaster = self._forecasters.get(name)
            if forecaster is None:
                forecaster = HoltForecaster(self._alpha, self._beta)
                self._forecasters[name] = forecaster
            p = max(1, current_parallelism.get(name, vs.n_tasks or 1))
            measured_total = vs.arrival_rate * p
            forecaster.observe(measured_total)
            forecast_total = max(measured_total, forecaster.forecast(self.horizon))
            self.forecast_log.append((name, measured_total, forecast_total))
            if vs.arrival_rate <= 0 or forecast_total <= measured_total:
                projected.vertices[name] = vs
                continue
            factor = forecast_total / measured_total
            projected.vertices[name] = VertexSummary(
                name,
                task_latency=vs.task_latency,
                service_mean=vs.service_mean,
                service_cv=vs.service_cv,
                interarrival_mean=vs.interarrival_mean / factor,
                interarrival_cv=vs.interarrival_cv,
                n_tasks=vs.n_tasks,
            )
        return projected


@register_policy(PredictiveScaleReactivelyPolicy.name)
def _build_predictive(context: PolicyContext, **knobs) -> PredictiveScaleReactivelyPolicy:
    return PredictiveScaleReactivelyPolicy(context.constraints, **knobs)
