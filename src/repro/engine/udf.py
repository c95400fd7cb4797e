"""User-defined functions (UDFs) executed by runtime tasks.

The engine treats UDFs as opaque (paper Sec. II): the only contracts are

* :meth:`UDF.process` — consume one payload, return output payloads;
* :attr:`UDF.latency_mode` — ``"RR"`` (read-ready) or ``"RW"``
  (read-write), telling the measurement layer which task-latency
  definition applies (paper Sec. II-A3);
* :meth:`UDF.service_time` — the simulated compute cost per item, drawn
  from a :class:`~repro.simulation.randomness.Distribution`.

Windowed UDFs (:class:`WindowedAggregateUDF`) additionally expose a
window length; the hosting task flushes them periodically and reports
read-write latencies for the items consumed since the last flush.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Optional, Tuple

from repro.simulation.randomness import (
    DEFAULT_BLOCK_SIZE,
    BlockSampler,
    Deterministic,
    Distribution,
)

#: latency measurement modes (paper Sec. II-A3)
READ_READY = "RR"
READ_WRITE = "RW"


class Emit:
    """Directs one output payload to a specific output gate.

    By default a UDF's outputs are replicated to *all* output gates (this
    matches e.g. the paper's TweetSource, which forwards each tweet both
    to HotTopics and to Filter). Wrapping a payload in ``Emit(gate,
    payload)`` restricts it to a single gate.
    """

    __slots__ = ("gate", "payload")

    def __init__(self, gate: int, payload: object) -> None:
        self.gate = gate
        self.payload = payload


class UDF:
    """Base class for all user-defined functions.

    Parameters
    ----------
    service_dist:
        Distribution of the simulated per-item compute time. Defaults to
        zero cost (pure forwarding).
    """

    latency_mode = READ_READY

    def __init__(self, service_dist: Optional[Distribution] = None) -> None:
        self.service_dist = service_dist if service_dist is not None else Deterministic(0.0)

    def open(self, task: object) -> None:
        """Called once when the hosting task starts; ``task`` is the host."""

    def close(self) -> None:
        """Called once when the hosting task stops."""

    def service_time(self, payload: object, rng: random.Random) -> float:
        """Simulated compute time for one item (may depend on the payload)."""
        return self.service_dist.sample(rng)

    def make_service_sampler(
        self, rng: random.Random, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[object], float]:
        """Return the ``payload -> seconds`` function the task draws from.

        The returned callable must consume ``rng`` exactly as per-item
        :meth:`service_time` calls would (block pre-draws are fine: the
        task is the stream's only consumer, so order is preserved). A
        subclass that overrides :meth:`service_time` gets it called per
        item, since the engine cannot know what its draws depend on.
        """
        if type(self).service_time is not UDF.service_time:
            return lambda payload: self.service_time(payload, rng)
        dist = self.service_dist
        if isinstance(dist, Deterministic):
            value = dist.value
            return lambda payload: value
        return BlockSampler(dist, rng, block_size).next

    def process(self, payload: object) -> Iterable[object]:
        """Consume one payload and return output payloads (or :class:`Emit`)."""
        raise NotImplementedError


class SourceUDF(UDF):
    """A source: generates payloads instead of consuming them.

    Subclasses (or users of the functional constructor) implement
    :meth:`generate`; the hosting source task calls it at the rate
    dictated by the vertex's rate profile.
    """

    def __init__(
        self,
        generator: Optional[Callable[[float, random.Random], object]] = None,
        service_dist: Optional[Distribution] = None,
    ) -> None:
        super().__init__(service_dist)
        self._generator = generator

    def generate(self, now: float, rng: random.Random) -> object:
        """Produce the next payload at virtual time ``now``."""
        if self._generator is None:
            raise NotImplementedError("provide a generator callable or override generate()")
        return self._generator(now, rng)

    def process(self, payload: object) -> Iterable[object]:  # pragma: no cover
        raise TypeError("source UDFs do not consume items")


class MapUDF(UDF):
    """Applies ``fn`` to every payload (1-in / 1-out, read-ready)."""

    def __init__(self, fn: Callable[[object], object], service_dist: Optional[Distribution] = None) -> None:
        super().__init__(service_dist)
        self.fn = fn

    def process(self, payload: object) -> Iterable[object]:
        return (self.fn(payload),)


class FilterUDF(UDF):
    """Forwards payloads for which ``predicate`` is true (read-ready)."""

    def __init__(
        self,
        predicate: Callable[[object], bool],
        service_dist: Optional[Distribution] = None,
    ) -> None:
        super().__init__(service_dist)
        self.predicate = predicate

    def process(self, payload: object) -> Iterable[object]:
        if self.predicate(payload):
            return (payload,)
        return ()


class FlatMapUDF(UDF):
    """Applies ``fn`` returning zero or more outputs per payload."""

    def __init__(
        self,
        fn: Callable[[object], Iterable[object]],
        service_dist: Optional[Distribution] = None,
    ) -> None:
        super().__init__(service_dist)
        self.fn = fn

    def process(self, payload: object) -> Iterable[object]:
        return tuple(self.fn(payload))


class WindowedAggregateUDF(UDF):
    """Time-window aggregation (read-write latency; paper Sec. II-A3).

    Items are folded into an accumulator; every ``window`` seconds the
    hosting task calls :meth:`flush`, which finalizes the accumulator into
    zero or more output payloads. The task latency of each consumed item
    is read-write: time from its consumption to the next write, which the
    hosting task measures using :meth:`consume_times_and_clear`.

    Parameters
    ----------
    window:
        Window length in (virtual) seconds, e.g. 0.2 for the paper's
        HotTopics 200 ms windows.
    create / add / finalize:
        Classic fold triple. ``finalize`` returns an iterable of outputs
        (possibly empty, in which case nothing is emitted for the window).
    emit_empty:
        If true, :meth:`flush` runs ``finalize`` even for windows that
        received no items (needed by aggregators that must emit
        heartbeats).
    """

    latency_mode = READ_WRITE

    def __init__(
        self,
        window: float,
        create: Callable[[], object],
        add: Callable[[object, object], object],
        finalize: Callable[[object], Iterable[object]],
        service_dist: Optional[Distribution] = None,
        emit_empty: bool = False,
    ) -> None:
        super().__init__(service_dist)
        if window <= 0:
            raise ValueError(f"window must be positive (got {window})")
        self.window = window
        self._create = create
        self._add = add
        self._finalize = finalize
        self.emit_empty = emit_empty
        self._acc = create()
        self._count = 0
        self._consume_times: List[float] = []

    def process(self, payload: object) -> Iterable[object]:
        """Fold the payload into the window; nothing is emitted here."""
        self._acc = self._add(self._acc, payload)
        self._count += 1
        return ()

    def record_consume(self, now: float) -> None:
        """Called by the host task after each consume, for RW latency."""
        self._consume_times.append(now)

    def flush(self) -> Tuple[object, ...]:
        """Finalize the current window and start a new one."""
        if self._count == 0 and not self.emit_empty:
            return ()
        outputs = tuple(self._finalize(self._acc))
        self._acc = self._create()
        self._count = 0
        return outputs

    def consume_times_and_clear(self) -> List[float]:
        """Consume-timestamps of the closed window (for RW latency)."""
        times = self._consume_times
        self._consume_times = []
        return times


class SinkUDF(UDF):
    """Terminal consumer; outputs nothing.

    ``on_item`` (if given) observes each payload — experiment recorders
    hook end-to-end latency sampling here.
    """

    def __init__(
        self,
        on_item: Optional[Callable[[object], None]] = None,
        service_dist: Optional[Distribution] = None,
    ) -> None:
        super().__init__(service_dist)
        self.on_item = on_item
        self.consumed = 0

    def process(self, payload: object) -> Iterable[object]:
        self.consumed += 1
        if self.on_item is not None:
            self.on_item(payload)
        return ()
