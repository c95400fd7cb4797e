"""Output-batching strategies (paper Sec. III-B configurations).

Each runtime channel serializes emitted items into an output buffer and
ships the buffer as one batch. *When* the buffer is shipped is the
batching strategy:

* :class:`InstantFlush` — ship every item immediately (Storm /
  Nephele-IF: lowest latency, highest per-item shipping overhead);
* :class:`FixedSizeBatching` — ship only when the buffer holds a fixed
  number of bytes (Nephele-16KiB: maximum throughput, seconds of latency
  at low rates);
* :class:`AdaptiveDeadlineBatching` — ship when the *oldest* buffered
  item has waited a configurable deadline, or when the buffer fills
  (Nephele-<ℓ>ms: the paper's adaptive output batching [16], whose
  deadline the QoS managers re-tune every adjustment interval).

The strategies are data: :class:`~repro.engine.task.OutputGate` picks
its emit path by the strategy's type once, at construction, and reads
``buffer_bytes`` / ``deadline`` from it on every emit; any other
:class:`BatchingStrategy` subclass is refused with a ``TypeError``.
"""

from __future__ import annotations


class BatchingStrategy:
    """Decides when a channel's output buffer is shipped."""

    def clone(self) -> "BatchingStrategy":
        """Fresh instance for a new channel (strategies may be stateful)."""
        raise NotImplementedError


class InstantFlush(BatchingStrategy):
    """Ship every data item individually, immediately."""

    def clone(self) -> "InstantFlush":
        return InstantFlush()

    def __repr__(self) -> str:
        return "InstantFlush()"


class FixedSizeBatching(BatchingStrategy):
    """Ship only when the buffer reaches ``buffer_bytes`` (default 16 KiB).

    No timer: at low rates the buffer can take seconds to fill, which is
    exactly the multi-second warm-up latency of Nephele-16KiB in Fig. 3.
    """

    def __init__(self, buffer_bytes: int = 16 * 1024) -> None:
        if buffer_bytes < 1:
            raise ValueError(f"buffer_bytes must be >= 1 (got {buffer_bytes})")
        self.buffer_bytes = buffer_bytes

    def clone(self) -> "FixedSizeBatching":
        return FixedSizeBatching(self.buffer_bytes)

    def __repr__(self) -> str:
        return f"FixedSizeBatching({self.buffer_bytes})"


class AdaptiveDeadlineBatching(BatchingStrategy):
    """Deadline-driven batching with a size cap (adaptive output batching).

    The per-channel ``deadline`` bounds the output-batch latency of the
    oldest buffered item; QoS managers overwrite it every adjustment
    interval with the budget computed by
    :class:`repro.core.batching_policy.AdaptiveBatchingPolicy`. The size
    cap keeps single batches within one network buffer; a deadline of 0
    ships every item immediately.
    """

    def __init__(
        self,
        initial_deadline: float = 0.001,
        buffer_bytes: int = 16 * 1024,
        min_deadline: float = 0.0,
        max_deadline: float = 0.5,
    ) -> None:
        if buffer_bytes < 1:
            raise ValueError(f"buffer_bytes must be >= 1 (got {buffer_bytes})")
        if not 0.0 <= min_deadline <= max_deadline:
            raise ValueError("need 0 <= min_deadline <= max_deadline")
        self.buffer_bytes = buffer_bytes
        self.min_deadline = min_deadline
        self.max_deadline = max_deadline
        self._deadline = self._clamp(initial_deadline)

    def _clamp(self, value: float) -> float:
        return max(self.min_deadline, min(self.max_deadline, value))

    @property
    def deadline(self) -> float:
        """Current flush deadline in seconds."""
        return self._deadline

    def set_deadline(self, deadline: float) -> None:
        """Re-tune the deadline (clamped into ``[min, max]``)."""
        self._deadline = self._clamp(deadline)

    def clone(self) -> "AdaptiveDeadlineBatching":
        return AdaptiveDeadlineBatching(
            self._deadline, self.buffer_bytes, self.min_deadline, self.max_deadline
        )

    def __repr__(self) -> str:
        return f"AdaptiveDeadlineBatching(deadline={self._deadline:.6f})"
