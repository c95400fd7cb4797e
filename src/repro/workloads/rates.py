"""Source rate profiles.

A :class:`RateProfile` dictates a source task's *attempted* emission rate
over virtual time (items/second, per task). Sources draw successive
emission intervals from the profile; backpressure may throttle the
*effective* rate below the attempted one (paper Sec. III-B).
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple


def check_jitter(jitter: str) -> str:
    """Return ``jitter`` if it names an interarrival law, else raise.

    ``next_interval`` treats every name but "deterministic" as Poisson,
    so a misspelt name would silently change the arrival process.
    """
    if jitter not in ("exponential", "deterministic"):
        raise ValueError(
            f"jitter must be 'exponential' or 'deterministic' (got {jitter!r})"
        )
    return jitter


class RateProfile:
    """Base class: attempted rate as a function of time."""

    #: interarrival jitter: "exponential" (Poisson arrivals) or
    #: "deterministic" (evenly spaced)
    jitter = "exponential"

    def rate(self, now: float) -> float:
        """Attempted emission rate at virtual time ``now`` (items/s)."""
        raise NotImplementedError

    def next_interval(self, now: float, rng: random.Random) -> float:
        """Time until the next emission attempt."""
        rate = self.rate(now)
        if rate <= 0.0:
            return 0.1  # idle poll: re-check the profile shortly
        if self.jitter == "deterministic":
            return 1.0 / rate
        return rng.expovariate(rate)


class ConstantRate(RateProfile):
    """A constant attempted rate."""

    def __init__(self, rate: float, jitter: str = "exponential") -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0 (got {rate})")
        self._rate = rate
        self.jitter = check_jitter(jitter)

    def rate(self, now: float) -> float:
        return self._rate

    def __repr__(self) -> str:
        return f"ConstantRate({self._rate})"


class PiecewiseRate(RateProfile):
    """Step-wise constant rate from ``(start_time, rate)`` segments.

    Segments must be sorted by start time; the first segment should start
    at 0. After the last segment the final rate holds forever.
    """

    def __init__(self, segments: Sequence[Tuple[float, float]], jitter: str = "exponential") -> None:
        if not segments:
            raise ValueError("need at least one segment")
        previous = -math.inf
        for start, rate in segments:
            if start <= previous:
                raise ValueError("segment start times must be strictly increasing")
            if rate < 0:
                raise ValueError(f"rates must be >= 0 (got {rate})")
            previous = start
        self.segments = list(segments)
        self.jitter = check_jitter(jitter)

    def rate(self, now: float) -> float:
        current = 0.0
        for start, rate in self.segments:
            if now >= start:
                current = rate
            else:
                break
        return current

    @property
    def end_time(self) -> float:
        """Start time of the last segment."""
        return self.segments[-1][0]

    def __repr__(self) -> str:
        return f"PiecewiseRate({len(self.segments)} segments)"


def step_phase_segments(
    warmup_rate: float,
    peak_rate: float,
    increment_steps: int,
    step_duration: float,
    plateau_steps: int = 1,
) -> List[Tuple[float, float]]:
    """Build the PrimeTester phase plan (paper Sec. III-A).

    Phases: one warm-up step at ``warmup_rate``; ``increment_steps``
    step-wise increasing rates up to ``peak_rate``; ``plateau_steps`` at
    the peak; then symmetric decrements back to the warm-up rate.

    Returns ``(start_time, rate)`` segments for :class:`PiecewiseRate`.
    """
    if increment_steps < 1:
        raise ValueError("need at least one increment step")
    if peak_rate <= warmup_rate:
        raise ValueError("peak_rate must exceed warmup_rate")
    segments: List[Tuple[float, float]] = []
    t = 0.0
    segments.append((t, warmup_rate))
    t += step_duration
    delta = (peak_rate - warmup_rate) / increment_steps
    up_rates = [warmup_rate + delta * i for i in range(1, increment_steps + 1)]
    for rate in up_rates:
        segments.append((t, rate))
        t += step_duration
    # The Plateau phase holds the peak for plateau_steps *additional*
    # steps after the increment step that reached it (paper Sec. III-A).
    for _ in range(max(0, plateau_steps)):
        segments.append((t, peak_rate))
        t += step_duration
    for rate in reversed(up_rates[:-1]):
        segments.append((t, rate))
        t += step_duration
    segments.append((t, warmup_rate))
    return segments


class DiurnalRate(RateProfile):
    """Sinusoidal day/night rate with optional load bursts.

    Models the paper's two-week Twitter replay: "the rate of tweets is
    variant with significant daily highs and lows", compressed into the
    experiment's duration. ``bursts`` are ``(start, duration,
    multiplier)`` triples — the paper's tweet-rate peak (6 734 tweets/s
    around 2 400 s) is reproduced as such a burst.
    """

    def __init__(
        self,
        base_rate: float,
        amplitude: float,
        period: float,
        bursts: Sequence[Tuple[float, float, float]] = (),
        phase: float = -math.pi / 2.0,
        jitter: str = "exponential",
    ) -> None:
        if base_rate <= 0:
            raise ValueError(f"base_rate must be > 0 (got {base_rate})")
        if not 0 <= amplitude <= 1:
            raise ValueError(f"amplitude must be in [0, 1] (got {amplitude})")
        if period <= 0:
            raise ValueError(f"period must be > 0 (got {period})")
        self.base_rate = base_rate
        self.amplitude = amplitude
        self.period = period
        self.phase = phase
        self.bursts = list(bursts)
        self.jitter = check_jitter(jitter)

    def rate(self, now: float) -> float:
        rate = self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * now / self.period + self.phase)
        )
        for start, duration, multiplier in self.bursts:
            if start <= now < start + duration:
                rate *= multiplier
        return max(0.0, rate)

    def __repr__(self) -> str:
        return (
            f"DiurnalRate(base={self.base_rate}, amp={self.amplitude}, "
            f"period={self.period}, bursts={len(self.bursts)})"
        )
