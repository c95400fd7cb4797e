"""Actuation supervision knobs (provisioning delay, retry, watchdog).

The paper's ScaleReactively loop treats rescaling as instantaneous and
infallible. Real elasticity controllers must survive slow and failed
actuations: a scale-up order takes provisioning time, may time out, and
may need retries before the cluster converges to the desired
parallelism. :class:`ActuationConfig` is the frozen knob bundle for that
supervision layer — provisioning-delay distribution, timeout,
exponential-backoff retry policy, and the constraint-violation watchdog.
Attempt failures come from a provisioning sample above the timeout, an
``ActuationFailure``/``ActuationDelay`` fault window, or the cluster
refusing the slots.

With no :class:`ActuationConfig` attached to a job (the default), the
scheduler applies rescaling synchronously exactly as before and runs
stay byte-identical to unsupervised behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.simulation.randomness import Distribution, Uniform


def _require_number(name: str, value: object, *, minimum: float = 0.0,
                    allow_equal: bool = True) -> float:
    """Reject non-numeric / NaN / out-of-range values at construction."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number (got {value!r})")
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite (got {value!r})")
    if allow_equal:
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum} (got {value!r})")
    elif value <= minimum:
        raise ValueError(f"{name} must be > {minimum} (got {value!r})")
    return value


@dataclass(frozen=True)
class ActuationConfig:
    """Supervised-actuation parameters for one job.

    Provisioning model
        ``provisioning_delay`` is sampled (deterministically, from the
        job's ``actuation`` random stream) per request; a sample above
        ``timeout`` counts as a timed-out attempt.

    Retry policy
        attempt ``k`` (1-based) backs off
        ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
        scaled by a symmetric jitter of relative width
        ``backoff_jitter``. After ``max_retries`` failed retries the
        request is abandoned (a *give-up*).

    Watchdog
        escalates to bottleneck-style doubling once the constraint has
        been violated while reconciliation lagged for
        ``watchdog_intervals`` consecutive adjustment intervals.
    """

    provisioning_delay: Distribution = field(
        default_factory=lambda: Uniform(0.3, 1.2))
    timeout: float = 10.0
    max_retries: int = 5
    backoff_base: float = 1.0
    backoff_factor: float = 2.0
    backoff_max: float = 30.0
    backoff_jitter: float = 0.1
    watchdog_intervals: int = 3

    def __post_init__(self) -> None:
        if not isinstance(self.provisioning_delay, Distribution):
            raise TypeError(
                "provisioning_delay must be a Distribution "
                f"(got {self.provisioning_delay!r})")
        _require_number("timeout", self.timeout, allow_equal=False)
        if isinstance(self.max_retries, bool) or not isinstance(self.max_retries, int):
            raise TypeError(f"max_retries must be an int (got {self.max_retries!r})")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0 (got {self.max_retries!r})")
        _require_number("backoff_base", self.backoff_base, allow_equal=False)
        _require_number("backoff_factor", self.backoff_factor, minimum=1.0)
        _require_number("backoff_max", self.backoff_max, allow_equal=False)
        jitter = _require_number("backoff_jitter", self.backoff_jitter)
        if jitter > 1.0:
            raise ValueError(f"backoff_jitter must be in [0, 1] (got {jitter!r})")
        if isinstance(self.watchdog_intervals, bool) or not isinstance(self.watchdog_intervals, int):
            raise TypeError(
                f"watchdog_intervals must be an int (got {self.watchdog_intervals!r})")
        if self.watchdog_intervals < 1:
            raise ValueError(
                f"watchdog_intervals must be >= 1 (got {self.watchdog_intervals!r})")

    def describe(self) -> dict:
        """JSON-serializable summary for manifests."""
        return {
            "provisioning_delay": type(self.provisioning_delay).__name__,
            "provisioning_delay_mean": self.provisioning_delay.mean,
            "timeout": self.timeout,
            "max_retries": self.max_retries,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "backoff_jitter": self.backoff_jitter,
            "watchdog_intervals": self.watchdog_intervals,
        }
