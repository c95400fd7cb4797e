"""Streaming statistics primitives.

:class:`OnlineStats` is a numerically stable (Welford) accumulator for
mean/variance; :func:`snapshot_and_clear` is the same recurrence run over
one measurement interval's buffered samples in a single frame, which is
what the QoS reporters use. :class:`WindowedStats` keeps the last *m*
interval aggregates, matching the paper's Eq. (2) averaging over the past
*m* measurements.

Float sums here are plain left-to-right loops, never ``sum()``: the
builtin is Neumaier-compensated from CPython 3.12 on and plain before,
and results must not depend on the interpreter version.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence


class OnlineStats:
    """Welford accumulator for count / mean / variance / min / max.

    Example
    -------
    >>> s = OnlineStats()
    >>> for x in (1.0, 2.0, 3.0):
    ...     s.add(x)
    >>> s.mean
    2.0
    >>> round(s.variance, 6)
    1.0
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Incorporate one sample."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Sample variance (``n-1`` denominator); 0.0 for n < 2."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation ``stdev / mean`` (0.0 if mean == 0)."""
        if self.count < 2 or self.mean == 0.0:
            return 0.0
        return self.stdev / self.mean

    def reset(self) -> None:
        """Clear all accumulated state."""
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def snapshot_and_reset(self) -> "StatsSnapshot":
        """Freeze the current aggregate and reset the accumulator."""
        snap = StatsSnapshot(self.count, self.mean, self.variance)
        self.reset()
        return snap

    def __repr__(self) -> str:
        return f"OnlineStats(n={self.count}, mean={self.mean:.6g}, var={self.variance:.6g})"


class StatsSnapshot:
    """A (count, mean, variance) triple for one interval.

    Treat instances as immutable: every empty interval is the one shared
    :data:`EMPTY_SNAPSHOT`, and a read-ready task's service snapshot is
    pushed into two windows.
    """

    __slots__ = ("count", "mean", "variance")

    def __init__(self, count: int, mean: float, variance: float) -> None:
        self.count = count
        self.mean = mean
        self.variance = variance

    def __repr__(self) -> str:
        return f"StatsSnapshot(n={self.count}, mean={self.mean:.6g})"


#: the snapshot of an interval without samples (shared, never mutated)
EMPTY_SNAPSHOT = StatsSnapshot(0, 0.0, 0.0)


def snapshot_and_clear(samples: List[float]) -> StatsSnapshot:
    """Snapshot one interval's buffered samples and empty the buffer.

    Runs the :meth:`OnlineStats.add` recurrence over ``samples`` in
    arrival order — the same operations in the same order, so count, mean
    and variance equal ``add`` per sample then ``snapshot_and_reset`` bit
    for bit — without a call or an accumulator object per sample. The
    list is cleared in place (callers keep ``append`` bound to it).

    Samples that are all zero (every instant-flush output-batch latency
    is) skip the loop: over ±0.0 the recurrence keeps mean and ``m2`` at
    +0.0. The loop counts with a float, which divides exactly like the
    int for any list that fits in memory.
    """
    if not samples:
        return EMPTY_SNAPSHOT
    n = len(samples)
    if not any(samples):
        del samples[:]
        return StatsSnapshot(n, 0.0, 0.0)
    count = 0.0
    mean = 0.0
    m2 = 0.0
    for value in samples:
        count += 1.0
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
    del samples[:]
    return StatsSnapshot(n, mean, m2 / (count - 1.0) if n > 1 else 0.0)


def mean_in_order(values: Iterable[float]) -> float:
    """Arithmetic mean by plain left-to-right addition (0.0 when empty)."""
    total = 0.0
    n = 0
    for value in values:
        total += value
        n += 1
    return total / n if n else 0.0


class WindowAggregates:
    """The pooled aggregates of one :class:`WindowedStats` window state."""

    __slots__ = ("has_data", "count", "mean", "weighted_mean", "variance", "cv")

    def __init__(
        self,
        has_data: bool,
        count: int,
        mean: float,
        weighted_mean: float,
        variance: float,
        cv: float,
    ) -> None:
        self.has_data = has_data
        self.count = count
        self.mean = mean
        self.weighted_mean = weighted_mean
        self.variance = variance
        self.cv = cv


class WindowedStats:
    """Keeps the last ``window`` interval snapshots and pools them.

    This realizes the paper's Eq. (2): summary values are means over the
    past *m* per-interval measurements. Pooled variance uses the standard
    combination of within- and between-group sums of squares so the
    coefficient of variation reflects all samples in the window.

    Empty snapshots still advance the window: *m* silent intervals evict
    everything, so stale measurements from a past burst cannot linger on
    a now-idle task or channel (they would otherwise freeze the latency
    model's view of it).

    Aggregates are computed at most once per window *change* and
    memoized: the QoS summary builders read ``mean``/``cv``/``count``
    several times per interval, and an idle task or channel pushes the
    empty snapshot every interval without changing any aggregate.

    The snapshots sit in a plain list, oldest first, and the object has
    slots: a job holds three windows per task and two per channel, so
    every byte here is paid thousands of times (DESIGN.md, "What a run
    retains").
    """

    __slots__ = ("window", "_snaps", "_cache")

    def __init__(self, window: int = 5) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1 (got {window})")
        self.window = window
        self._snaps: List[StatsSnapshot] = []
        self._cache: Optional[WindowAggregates] = None

    def push(self, snap: StatsSnapshot) -> None:
        """Append one interval snapshot (empty ones age the window)."""
        snaps = self._snaps
        full = len(snaps) == self.window
        # An empty snapshot that evicts nothing, or another empty one,
        # leaves every aggregate as it was: keep the memo.
        if snap.count or (full and snaps[0].count):
            self._cache = None
        if full:
            del snaps[0]
        snaps.append(snap)

    def _aggregates(self) -> WindowAggregates:
        cache = self._cache
        if cache is None:
            cache = self._cache = self._compute()
        return cache

    def _compute(self) -> WindowAggregates:
        snaps = self._snaps
        filled = 0
        total = 0
        mean_sum = 0.0
        weighted_sum = 0.0
        for s in snaps:
            count = s.count
            if count > 0:
                filled += 1
                total += count
                mean_sum += s.mean
                weighted_sum += s.mean * count
        if not filled:
            return _NO_DATA
        mean = mean_sum / filled
        weighted_mean = weighted_sum / total
        if total < 2:
            variance = 0.0
        else:
            # Within- plus between-interval sums of squares; needs the
            # weighted mean, hence the second walk.
            ssq = 0.0
            for s in snaps:
                count = s.count
                if count > 0:
                    ssq += s.variance * (count - 1)
                    ssq += count * (s.mean - weighted_mean) ** 2
            variance = ssq / (total - 1)
        if weighted_mean == 0.0:
            cv = 0.0
        else:
            cv = math.sqrt(variance) / weighted_mean
        return WindowAggregates(True, total, mean, weighted_mean, variance, cv)

    @property
    def has_data(self) -> bool:
        """Whether any non-empty snapshot is in the window."""
        return self._aggregates().has_data

    @property
    def count(self) -> int:
        """Total number of samples pooled in the window."""
        return self._aggregates().count

    @property
    def mean(self) -> float:
        """Unweighted mean of the non-empty interval means (paper Eq. 2)."""
        return self._aggregates().mean

    @property
    def weighted_mean(self) -> float:
        """Sample-count-weighted mean across the window."""
        return self._aggregates().weighted_mean

    @property
    def variance(self) -> float:
        """Pooled variance across the window's snapshots."""
        return self._aggregates().variance

    @property
    def cv(self) -> float:
        """Pooled coefficient of variation across the window."""
        return self._aggregates().cv


#: aggregates of a window holding no samples (shared, never mutated)
_NO_DATA = WindowAggregates(False, 0, 0.0, 0.0, 0.0, 0.0)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Return the ``q``-th percentile (0..100) via linear interpolation.

    Returns ``None`` on an empty sequence. Used by the experiment
    recorders for the paper's 95th-percentile latency series.
    """
    if not samples:
        return None
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered: List[float] = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    interpolated = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # Clamp away interpolation rounding (can escape [low, high] by 1 ulp).
    return min(max(interpolated, ordered[low]), ordered[high])
