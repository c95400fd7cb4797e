"""Skewed key-space sampling shared by workloads and stateful operators.

The paper's tweet replay concentrates load on "one or very few topics";
the same heavy-tailed structure governs how much state a keyed operator
accumulates per key. :class:`ZipfKeySampler` is the single CDF-based
Zipf sampler behind both: :class:`~repro.workloads.tweets
.TweetTraceGenerator` draws topics from it, and
:class:`~repro.engine.state.StateManager` draws the keys that grow a
stateful vertex's per-key state. One ``rng.random()`` per draw keeps
every existing draw sequence byte-identical.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import List


class ZipfKeySampler:
    """Inverse-CDF sampling from a Zipf(``s``) law over ``n_keys`` ranks.

    Rank 0 is the most popular key. Sampling consumes exactly one
    ``rng.random()`` draw (binary search over the precomputed CDF), so
    callers can interleave it with other draws deterministically.
    """

    __slots__ = ("n_keys", "s", "_cdf")

    def __init__(self, n_keys: int, s: float = 1.1) -> None:
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.s = float(s)
        weights = [1.0 / (rank ** self.s) for rank in range(1, n_keys + 1)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)

    def sample_index(self, rng: random.Random) -> int:
        """Draw one key rank (0-based; 0 = most popular)."""
        cdf = self._cdf
        # hi = last rank: a draw above the rounded-down final knot maps to it
        return bisect_left(cdf, rng.random(), 0, len(cdf) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ZipfKeySampler(n_keys={self.n_keys}, s={self.s})"


__all__ = ["ZipfKeySampler"]
