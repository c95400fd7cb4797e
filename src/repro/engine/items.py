"""Data items flowing through the runtime graph.

A :class:`DataItem` wraps a payload with the timestamps the measurement
architecture needs: ``created_at`` (set once, at the source, for
end-to-end ground truth) and ``emitted_at`` (set per hop when the item is
written into a channel's output buffer, used for channel and output-batch
latency). ``RuntimeTask._route_outputs`` constructs one item per target
channel, so per-hop timestamps never alias across broadcast copies.

What a delivered item leaves behind lives here too: :class:`SinkSamples`
is the one buffer of ``(time, end-to-end latency)`` ground-truth samples
— a flat ``array('d')``, 16 bytes per sample and no Python object per
item — that sink tasks and recorder probe feeds write and every consumer
drains as a read-only :class:`SampleView`.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Tuple


class DataItem:
    """One data item in flight on a single channel hop."""

    __slots__ = ("payload", "created_at", "size", "emitted_at")

    def __init__(self, payload: object, created_at: float, size: int = 256) -> None:
        self.payload = payload
        #: virtual time the item was first emitted by a source task
        self.created_at = created_at
        #: serialized size in bytes (drives buffer fill and network time)
        self.size = size
        #: virtual time the item was written into the current channel's
        #: output buffer (per-hop)
        self.emitted_at: Optional[float] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataItem(created_at={self.created_at:.6f}, size={self.size})"


class SampleView:
    """A drained batch of samples: a read-only sequence of float pairs.

    Behaves like a list of ``(time, latency)`` tuples for ``len``,
    truthiness, iteration and integer indexing. Detached: samples
    recorded after the drain never show up here.
    """

    __slots__ = ("_flat",)

    def __init__(self, flat: array) -> None:
        #: ``t0, l0, t1, l1, ...`` in recording order
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) >> 1

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        # zip pulls both halves of a pair from the one iterator (and
        # reuses its result tuple when the caller unpacks it at once).
        flat = iter(self._flat)
        return zip(flat, flat)

    def __getitem__(self, index: int) -> Tuple[float, float]:
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("sample index out of range")
        return (self._flat[2 * index], self._flat[2 * index + 1])

    def latencies(self) -> array:
        """The latencies alone, in recording order, as an ``array('d')``."""
        return self._flat[1::2]


class SinkSamples:
    """Buffer of ``(time, latency)`` samples between two drains.

    :meth:`record` has the ``process_probe`` signature, so the bound
    method is what a sink task (or any vertex probe) calls per item.
    """

    __slots__ = ("_sim", "_flat")

    def __init__(self, sim) -> None:
        #: the clock samples are stamped with (anything with ``.now``)
        self._sim = sim
        self._flat = array("d")

    def record(self, latency: float, payload: object) -> None:
        """Append one sample stamped with the current virtual time."""
        self._flat.extend((self._sim.now, latency))

    def drain(self) -> SampleView:
        """Hand over everything recorded since the last drain."""
        flat = self._flat
        self._flat = array("d")
        return SampleView(flat)
