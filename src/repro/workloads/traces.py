"""Rate-trace tooling: generate, persist and replay rate traces.

The paper replays a two-week Twitter dataset "at the correct historic
rates or a multiple thereof" inside a 100-minute experiment. This module
provides the equivalent machinery for the synthetic substitute:

* :func:`generate_diurnal_trace` — synthesize a multi-day rate trace
  (diurnal cycle, weekend dip, noise, bursts);
* :func:`save_trace` / :func:`load_trace` — CSV persistence;
* :class:`TraceRateProfile` — replay a trace as a source rate profile,
  time-compressed into an experiment window and rate-scaled, exactly the
  knobs the paper's TweetSource exposes.
"""

from __future__ import annotations

import csv
import math
import os
import random
from typing import List, Optional, Sequence, Tuple

from repro.workloads.rates import RateProfile, check_jitter

#: one trace sample: (timestamp_seconds, rate_per_second)
TracePoint = Tuple[float, float]


def generate_diurnal_trace(
    days: int = 14,
    base_rate: float = 3000.0,
    daily_amplitude: float = 0.6,
    weekend_factor: float = 0.8,
    noise: float = 0.05,
    bursts: Sequence[Tuple[float, float, float]] = (),
    resolution: float = 600.0,
    seed: int = 42,
) -> List[TracePoint]:
    """Synthesize a multi-day rate trace with daily highs and lows.

    Parameters
    ----------
    days:
        Trace length in days (paper: two weeks).
    base_rate:
        Mean rate in items/second (the paper's trace peaks at 6 734
        tweets/s; base 3 000 with amplitude 0.6 peaks near 4 800 before
        bursts).
    daily_amplitude:
        Relative day/night swing (0..1).
    weekend_factor:
        Multiplier applied on days 5 and 6 of each week.
    noise:
        Relative white noise per sample.
    bursts:
        ``(start_seconds, duration_seconds, multiplier)`` triples.
    resolution:
        Seconds between trace samples.
    """
    if days < 1 or base_rate <= 0 or resolution <= 0:
        raise ValueError("days, base_rate and resolution must be positive")
    if not 0 <= daily_amplitude <= 1:
        raise ValueError("daily_amplitude must be in [0, 1]")
    rng = random.Random(seed)
    day = 86_400.0
    points: List[TracePoint] = []
    t = 0.0
    horizon = days * day
    while t < horizon:
        diurnal = 1.0 + daily_amplitude * math.sin(2.0 * math.pi * t / day - math.pi / 2.0)
        weekday = int(t // day) % 7
        weekly = weekend_factor if weekday >= 5 else 1.0
        rate = base_rate * diurnal * weekly
        for start, duration, multiplier in bursts:
            if start <= t < start + duration:
                rate *= multiplier
        rate *= 1.0 + rng.uniform(-noise, noise)
        points.append((t, max(0.0, rate)))
        t += resolution
    return points


def save_trace(path: str, trace: Sequence[TracePoint]) -> str:
    """Write a trace to CSV (``time_s,rate_per_s``); returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "rate_per_s"])
        for t, rate in trace:
            writer.writerow([f"{t:.3f}", f"{rate:.6f}"])
    return path


def load_trace(path: str) -> List[TracePoint]:
    """Read a trace written by :func:`save_trace`."""
    points: List[TracePoint] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["time_s", "rate_per_s"]:
            raise ValueError(f"{path}: not a rate-trace CSV (header {reader.fieldnames})")
        for row in reader:
            points.append((float(row["time_s"]), float(row["rate_per_s"])))
    if not points:
        raise ValueError(f"{path}: empty trace")
    return points


class TraceRateProfile(RateProfile):
    """Replays a rate trace, compressed and scaled (paper Sec. V-B1).

    ``compression`` maps trace time onto experiment time (the paper
    replays two weeks in 100 minutes, a compression of ~201x);
    ``rate_scale`` multiplies the replayed rates ("the correct historic
    rates or a multiple thereof"). Rates are linearly interpolated
    between trace samples; past the trace end the last rate holds.
    """

    def __init__(
        self,
        trace: Sequence[TracePoint],
        compression: float = 1.0,
        rate_scale: float = 1.0,
        jitter: str = "exponential",
    ) -> None:
        if not trace:
            raise ValueError("trace must not be empty")
        if compression <= 0 or rate_scale <= 0:
            raise ValueError("compression and rate_scale must be positive")
        previous = -math.inf
        for t, rate in trace:
            if t <= previous:
                raise ValueError("trace timestamps must be strictly increasing")
            if rate < 0:
                raise ValueError("trace rates must be >= 0")
            previous = t
        self.trace = list(trace)
        self.compression = compression
        self.rate_scale = rate_scale
        self.jitter = check_jitter(jitter)

    @property
    def replay_duration(self) -> float:
        """Experiment-time length of the compressed trace."""
        return self.trace[-1][0] / self.compression

    def rate(self, now: float) -> float:
        trace_time = now * self.compression
        points = self.trace
        if trace_time <= points[0][0]:
            return points[0][1] * self.rate_scale
        if trace_time >= points[-1][0]:
            return points[-1][1] * self.rate_scale
        lo, hi = 0, len(points) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if points[mid][0] <= trace_time:
                lo = mid
            else:
                hi = mid
        t0, r0 = points[lo]
        t1, r1 = points[hi]
        frac = (trace_time - t0) / (t1 - t0)
        return (r0 + frac * (r1 - r0)) * self.rate_scale

    def __repr__(self) -> str:
        return (
            f"TraceRateProfile({len(self.trace)} points, "
            f"compression={self.compression}, scale={self.rate_scale})"
        )
