"""Event handles for the discrete-event simulation kernel.

An :class:`Event` is a scheduled callback with a firing time. The kernel
keys its heap entries by the tuple ``(time, seq)`` so that simultaneous
events fire in scheduling order, which keeps simulations deterministic.
Since the fast-path refactor the ``Event`` object itself no longer lives
in heap comparisons — the kernel pushes ``(time, seq, event)`` tuples and
lets CPython compare the tuple prefix natively — but events keep their
``(time, seq)`` total order for introspection and compatibility.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple


class Event:
    """A scheduled callback inside a :class:`~repro.simulation.Simulator`.

    Events are created via :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at` and should not be instantiated directly.
    An event can be cancelled before it fires with :meth:`cancel`;
    cancelled events are skipped (and lazily discarded) by the kernel.

    ``generation`` disambiguates recycled pool events: the kernel bumps
    it every time a pooled event object is reused for a new scheduling,
    so internal owners (e.g. :class:`~repro.simulation.kernel
    .PeriodicProcess`) can verify a retained handle still refers to the
    occurrence they scheduled before cancelling it. Handles returned by
    the public ``schedule*`` APIs are never recycled and need no such
    check.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "pooled", "generation")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Optional[Callable[..., Any]],
        args: Tuple[Any, ...],
        pooled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: kernel-internal: recycled into the event pool after firing
        self.pooled = pooled
        #: bumped on every pool reuse; see class docstring
        self.generation = 0

    def cancel(self) -> None:
        """Prevent this event from firing.

        Cancelling an already-fired or already-cancelled event is a no-op.
        """
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        if self.pooled:
            state += f", pooled gen={self.generation}"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"
