"""Process-wide metrics primitives: counters, gauges, histograms.

A :class:`MetricsRegistry` is a flat, insertion-ordered namespace of
instruments. The registry is deliberately simulation-agnostic (it never
touches the event heap or any RNG), so instrumented code behaves
identically whether metrics are collected or not — the property the
engine's byte-identical-when-disabled guarantee rests on.

Instruments are get-or-create: ``registry.counter("scheduler.tasks_started")``
returns the same object on every call, so hot paths can cache the handle.
The engine creates one private registry per run so concurrent engines and
tests never share state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


class Gauge:
    """A point-in-time value that may go up or down."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self.value = float(value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max.

    ``bounds`` are the inclusive upper bounds of the finite buckets; one
    overflow bucket is appended implicitly. Bucket counts are cumulative
    in :meth:`snapshot` (Prometheus convention) so downstream tooling can
    derive quantile estimates.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_BUCKETS
        if not chosen or list(chosen) != sorted(chosen):
            raise ValueError(f"histogram {name!r}: bounds must be non-empty and sorted")
        self.bounds: Tuple[float, ...] = chosen
        self.bucket_counts: List[int] = [0] * (len(chosen) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # The first bound with value <= bound, else the overflow bucket.
        # NaN is below no bound, so it overflows (bisect would say 0).
        if value != value:
            self.bucket_counts[-1] += 1
        else:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view with cumulative bucket counts."""
        cumulative = []
        running = 0
        for count in self.bucket_counts:
            running += count
            cumulative.append(running)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound:g}": c for bound, c in zip(self.bounds, cumulative)},
                "le_inf": cumulative[-1],
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6f})"


Instrument = Union[Counter, Gauge, Histogram]


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

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first access)."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

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
