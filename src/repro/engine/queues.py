"""Bounded input queues (producer-consumer substrate, paper Sec. II c).

Each runtime task owns one bounded input queue shared by all its inbound
channels. Bounded capacity is what turns consumer-side overload into
backpressure: when the queue is full, arriving batches are parked in the
channels' pending buffers and, transitively, producers block — mirroring
the paper's description of queues "growing until full" followed by
backpressure throttling.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Tuple

from repro.engine.items import DataItem


class BoundedQueue:
    """A FIFO of ``(item, source_channel)`` with bounded capacity.

    ``source_channel`` is kept alongside each item so the consumer can
    attribute channel latency to the right channel when it pops the item.
    Space listeners registered via :meth:`add_space_listener` are notified
    (once each, FIFO) when capacity frees up — channels use this to
    deliver parked batches.
    """

    __slots__ = ("capacity", "_items", "_space_listeners", "total_enqueued")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self._items: Deque[Tuple[DataItem, object]] = deque()
        self._space_listeners: Deque[Callable[[], None]] = deque()
        #: total items ever enqueued (for tests / recorders)
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        """Whether the queue is at capacity."""
        return len(self._items) >= self.capacity

    def try_put(self, item: DataItem, source: object) -> bool:
        """Enqueue if space allows; returns whether the item was accepted."""
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append((item, source))
        self.total_enqueued += 1
        return True

    def get(self) -> Tuple[DataItem, object]:
        """Pop the oldest ``(item, source_channel)`` pair.

        Frees one slot and wakes queued space listeners while space
        remains. Raises ``IndexError`` when empty.
        """
        entry = self._items.popleft()
        if self._space_listeners:
            self._notify_space()
        return entry

    def add_space_listener(self, callback: Callable[[], None]) -> None:
        """Register a one-shot callback fired when space frees up."""
        self._space_listeners.append(callback)

    def _notify_space(self) -> None:
        # Wake listeners while there is space; each listener may consume
        # space again (delivering a parked batch), so re-check every time.
        while self._space_listeners and not self.is_full:
            listener = self._space_listeners.popleft()
            listener()

    def drain(self) -> List[Tuple[DataItem, object]]:
        """Remove and return everything (used on task teardown)."""
        drained = list(self._items)
        self._items.clear()
        self._notify_space()
        return drained
