"""Stream partitioners (wiring patterns / "stream groupings").

A partitioner maps each emitted payload to one or more target channel
indices. Partitioners are *live* objects owned by a producer task's output
gate: when the downstream vertex is rescaled, the gate rebuilds the
partitioner, which is the "ad-hoc remapping of stream partitions to
consumer tasks" the paper's elasticity assumption (Sec. IV-A c) requires.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional, Sequence


class Partitioner:
    """Base class: selects target channel indices for a payload."""

    def __init__(self, fanout: int) -> None:
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1 (got {fanout})")
        self.fanout = fanout

    def select(self, payload: object) -> Sequence[int]:
        """Return the indices (into the channel list) to send ``payload`` to."""
        raise NotImplementedError


class RoundRobinPartitioner(Partitioner):
    """Cycles through targets; the paper's default load-balancing pattern.

    Round-robin spreads load evenly regardless of payload content, which
    is what makes the paper's "effective load balancing" assumption hold
    (Sec. IV-A b) and rescaling trivially correct (Sec. IV-A c).
    """

    def __init__(self, fanout: int, start: int = 0) -> None:
        super().__init__(fanout)
        self._next = start % fanout

    def select(self, payload: object) -> Sequence[int]:
        index = self._next
        self._next = (self._next + 1) % self.fanout
        return (index,)


class KeyPartitioner(Partitioner):
    """Hash-partitions payloads by a user-supplied key function.

    Provided for completeness (grouped aggregations); the paper treats
    state migration for key partitioning as out of scope, and so do we —
    resizing simply remaps keys, which is correct only for stateless or
    externally-stated UDFs.
    """

    def __init__(self, fanout: int, key_fn: Callable[[object], object]) -> None:
        super().__init__(fanout)
        if key_fn is None:
            raise ValueError("KeyPartitioner requires a key function")
        self.key_fn = key_fn

    def select(self, payload: object) -> Sequence[int]:
        key = self.key_fn(payload)
        digest = zlib.crc32(repr(key).encode())
        return (digest % self.fanout,)


class BroadcastPartitioner(Partitioner):
    """Replicates every payload to all targets (e.g. HTM → Filter)."""

    def __init__(self, fanout: int) -> None:
        super().__init__(fanout)
        self._all: List[int] = list(range(fanout))

    def select(self, payload: object) -> Sequence[int]:
        return self._all


def make_partitioner(
    pattern: str,
    fanout: int,
    key_fn: Optional[Callable[[object], object]] = None,
    start: int = 0,
) -> Partitioner:
    """Instantiate the partitioner for a job edge's wiring ``pattern``.

    ``start`` staggers the round-robin origin across producer tasks so the
    first items of many producers do not all land on consumer 0.
    """
    if pattern == "round_robin":
        return RoundRobinPartitioner(fanout, start=start)
    if pattern == "key":
        if key_fn is None:
            raise ValueError("pattern 'key' requires key_fn")
        return KeyPartitioner(fanout, key_fn)
    if pattern == "broadcast":
        return BroadcastPartitioner(fanout)
    raise ValueError(f"unknown wiring pattern {pattern!r}")
