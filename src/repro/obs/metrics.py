"""Process-wide metrics primitives: counters and histograms.

A :class:`MetricsRegistry` is a flat, insertion-ordered namespace of
instruments. The registry is deliberately simulation-agnostic (it never
touches the event heap or any RNG), so instrumented code behaves
identically whether metrics are collected or not — the property the
engine's byte-identical-when-disabled guarantee rests on.

Instruments are get-or-create: ``registry.histogram("service_time.worker")``
returns the same object on every call, so hot paths can cache its
``observe``, a plain list append. The engine creates one private registry
per run so concurrent engines and tests never share state. It holds only
what must be pushed per item — the ``service_time.<vertex>`` histograms;
every scalar metric is a component's own counter, read by
:class:`~repro.obs.sampling.MetricsSampler`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

#: default histogram bucket upper bounds (seconds) — tuned for the
#: sub-second service times of the simulated tasks; the last implicit
#: bucket is +inf
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: cannot decrease (got {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are the inclusive upper bounds of the finite buckets: at
    least one, finite and strictly increasing. One overflow bucket is
    appended implicitly. Bucket counts are cumulative in :meth:`snapshot`
    (Prometheus convention) so downstream tooling can derive quantile
    estimates.

    A per-item fact is appended, and what derives from it is folded when
    read: :attr:`observe` is the bound ``append`` of a list of pending
    samples, so recording one runs no Python frame. Every read (``count``,
    ``sum``, ``min``, ``max``, ``mean``, ``bucket_counts``, ``snapshot``)
    first folds the pending samples with :meth:`_fold`, the one rule for
    all five derived values.
    """

    __slots__ = ("name", "bounds", "observe", "_samples", "_buckets",
                 "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if (not chosen or not all(map(math.isfinite, chosen))
                or any(low >= high for low, high in zip(chosen, chosen[1:]))):
            raise ValueError(
                f"histogram {name!r}: bounds must be non-empty, finite and "
                f"strictly increasing (got {chosen})"
            )
        for low, high in zip(chosen, chosen[1:]):  # ``:g`` rounding is monotone
            if f"{low:g}" == f"{high:g}":
                raise ValueError(
                    f"histogram {name!r}: bounds {low!r} and {high!r} share "
                    f"the bucket name le_{low:g}"
                )
        self.bounds: Tuple[float, ...] = chosen
        self._samples: List[float] = []
        #: record one sample: the pending list's bound ``append``
        self.observe: Callable[[float], None] = self._samples.append
        self._buckets: List[int] = [0] * (len(chosen) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def _fold(self) -> None:
        """Fold the pending samples into count, sum, min, max and buckets.

        Bit-identical to adding the samples one at a time: the sum is an
        in-order reduction from the current sum, ``min``/``max`` keep the
        first of equal extremes as a running ``<``/``>`` does, and a
        sample lands in the first bucket whose bound it does not exceed
        (``bisect_right`` over the sorted samples counts them per bound).
        NaN orders nothing, so a NaN sum sends the fold to the per-value
        rule, where a NaN sample overflows.
        """
        pending = self._samples
        if not pending:
            return
        total = reduce(add, pending, self._sum)
        buckets = self._buckets
        if total == total:
            low, high = min(pending), max(pending)
            if self._min is None or low < self._min:
                self._min = low
            if self._max is None or high > self._max:
                self._max = high
            ordered = sorted(pending)
            below = 0
            for index, bound in enumerate(self.bounds):
                upto = bisect_right(ordered, bound)
                buckets[index] += upto - below
                below = upto
            buckets[-1] += len(ordered) - below
        else:
            bounds = self.bounds
            for value in pending:
                if self._min is None or value < self._min:
                    self._min = value
                if self._max is None or value > self._max:
                    self._max = value
                buckets[len(bounds) if value != value else bisect_left(bounds, value)] += 1
        self._count += len(pending)
        self._sum = total
        pending.clear()  # the same list: ``observe`` is bound to it

    @property
    def count(self) -> int:
        """Number of observed samples."""
        self._fold()
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples, added in observation order."""
        self._fold()
        return self._sum

    @property
    def min(self) -> Optional[float]:
        """Smallest observed sample (None when empty)."""
        self._fold()
        return self._min

    @property
    def max(self) -> Optional[float]:
        """Largest observed sample (None when empty)."""
        self._fold()
        return self._max

    @property
    def bucket_counts(self) -> List[int]:
        """Per-bucket (not cumulative) counts, overflow bucket last."""
        self._fold()
        return list(self._buckets)

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        self._fold()
        return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view with cumulative bucket counts."""
        self._fold()
        cumulative = []
        running = 0
        for count in self._buckets:
            running += count
            cumulative.append(running)
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound:g}": c for bound, c in zip(self.bounds, cumulative)},
                "le_inf": cumulative[-1],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6f})"


Instrument = Union[Counter, Histogram]


class MetricsRegistry:
    """Insertion-ordered namespace of instruments with get-or-create access."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind, factory) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first access)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def histogram(self, name: str, bounds: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram named ``name`` (created on first access)."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name, bounds))

    def snapshot(self) -> Dict[str, object]:
        """Flat ``{name: value-or-histogram-dict}`` view of all instruments."""
        out: Dict[str, object] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                out[name] = instrument.snapshot()
            else:
                out[name] = instrument.value
        return out

    def __len__(self) -> int:
        return len(self._instruments)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._instruments)} instruments)"
