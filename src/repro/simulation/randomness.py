"""Seeded random-variate streams for the simulation.

Every stochastic model input (service times, interarrival jitter, payload
sizes, sampling decisions, ...) draws from a named stream derived from a
single root seed, so whole experiments are reproducible bit-for-bit and
changing one component's draws does not perturb the others.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, List

#: default number of variates a :class:`BlockSampler` pre-draws per refill
DEFAULT_BLOCK_SIZE = 256
#: a BlockSampler's first block; later blocks double up to its block size
FIRST_BLOCK_SIZE = 32

# The constants of CPython's ``random`` module that ``gammavariate`` uses;
# the in-frame block sampler below repeats that algorithm operation for
# operation, so the tests pin these to the running interpreter's values.
_LOG4 = math.log(4.0)
_SG_MAGICCONST = 1.0 + math.log(4.5)


class RandomStreams:
    """A factory of independent, named ``random.Random`` streams.

    Stream seeds are derived deterministically from ``(root_seed, name)``
    so that the same name always yields the same stream for a given root
    seed, regardless of creation order.

    Example
    -------
    >>> streams = RandomStreams(42)
    >>> a = streams.get("service:prime")
    >>> b = streams.get("arrivals:source-0")
    >>> a is streams.get("service:prime")
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            derived = (self.root_seed * 0x9E3779B1 + zlib.crc32(name.encode())) & 0xFFFFFFFF
            stream = random.Random(derived)
            self._streams[name] = stream
        return stream

    def fork(self, salt: int) -> "RandomStreams":
        """Return a new factory with a seed derived from this one."""
        return RandomStreams((self.root_seed * 1_000_003 + salt) & 0x7FFFFFFF)


class Distribution:
    """Base class for random-variate distributions.

    Subclasses implement :meth:`sample`. All distributions also expose
    their analytic ``mean`` and ``cv`` (coefficient of variation), which
    tests use to validate the measurement pipeline against ground truth.
    """

    mean: float
    cv: float

    def sample(self, rng: random.Random) -> float:
        """Draw one variate using the supplied RNG."""
        raise NotImplementedError

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        """Draw ``n`` variates, bit-identical to ``n`` :meth:`sample` calls.

        Every distribution in this module overrides this with the scalar
        algorithm run for the whole block in one frame; the default, for
        subclasses defined elsewhere, is ``n`` scalar draws.
        """
        sample = self.sample
        return [sample(rng) for _ in range(n)]


class Deterministic(Distribution):
    """A constant: every sample equals ``value`` (cv = 0)."""

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"deterministic value must be >= 0 (got {value})")
        self.value = value
        self.mean = value
        self.cv = 0.0

    def sample(self, rng: random.Random) -> float:
        return self.value

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        return [self.value] * n

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential distribution with the given mean (cv = 1)."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0 (got {mean})")
        self.mean = mean
        self.cv = 1.0

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        # The transform CPython's expovariate applies to each uniform.
        lambd = 1.0 / self.mean
        log = math.log
        rand = rng.random
        return [-log(1.0 - rand()) / lambd for _ in range(n)]

    def __repr__(self) -> str:
        return f"Exponential(mean={self.mean!r})"


class Gamma(Distribution):
    """Gamma distribution parameterized by ``mean`` and ``cv``.

    With shape ``k = 1/cv²`` and scale ``θ = mean·cv²`` the distribution
    has exactly the requested mean and coefficient of variation. ``cv < 1``
    gives sub-exponential variability (typical of compute-bound UDFs),
    ``cv > 1`` bursty/heavy-tailed behaviour.
    """

    def __init__(self, mean: float, cv: float) -> None:
        if mean <= 0:
            raise ValueError(f"gamma mean must be > 0 (got {mean})")
        if cv <= 0:
            raise ValueError(f"gamma cv must be > 0 (got {cv})")
        self.mean = mean
        self.cv = cv
        self._shape = 1.0 / (cv * cv)
        self._scale = mean * cv * cv

    def sample(self, rng: random.Random) -> float:
        return rng.gammavariate(self._shape, self._scale)

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        # CPython's gammavariate, run for the whole block in one frame: the
        # same float operations in the same order on the same uniforms, so
        # the variates and the stream position match n sample() calls.
        alpha = self._shape
        beta = self._scale
        rand = rng.random
        log = math.log
        exp = math.exp
        if alpha == 1.0:
            return [-log(1.0 - rand()) * beta for _ in range(n)]
        out: List[float] = []
        append = out.append
        if alpha > 1.0:
            # R.C.H. Cheng (1977), "The generation of Gamma variables with
            # non-integral shape parameters"
            ainv = math.sqrt(2.0 * alpha - 1.0)
            bbb = alpha - _LOG4
            ccc = alpha + ainv
            for _ in range(n):
                while True:
                    u1 = rand()
                    if not 1e-7 < u1 < 0.9999999:
                        continue
                    u2 = 1.0 - rand()
                    v = log(u1 / (1.0 - u1)) / ainv
                    x = alpha * exp(v)
                    z = u1 * u1 * u2
                    r = bbb + ccc * v - x
                    if r + _SG_MAGICCONST - 4.5 * z >= 0.0 or r >= log(z):
                        break
                append(x * beta)
            return out
        # 0 < alpha < 1: Ahrens-Dieter algorithm GS (Kennedy & Gentle)
        b = (math.e + alpha) / math.e
        for _ in range(n):
            while True:
                p = b * rand()
                if p <= 1.0:
                    x = p ** (1.0 / alpha)
                else:
                    x = -log((b - p) / alpha)
                u1 = rand()
                if p > 1.0:
                    if u1 <= x ** (alpha - 1.0):
                        break
                elif u1 <= exp(-x):
                    break
            append(x * beta)
        return out

    def __repr__(self) -> str:
        return f"Gamma(mean={self.mean!r}, cv={self.cv!r})"


class Uniform(Distribution):
    """Uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high (got {low}, {high})")
        self.low = low
        self.high = high
        self.mean = (low + high) / 2.0
        spread = (high - low) / math.sqrt(12.0)
        self.cv = spread / self.mean if self.mean > 0 else 0.0

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def sample_block(self, rng: random.Random, n: int) -> List[float]:
        # random.uniform(a, b) is a + (b - a) * random(); +, -, * are
        # IEEE-exact, so the comprehension reproduces it bit-for-bit.
        low = self.low
        span = self.high - low
        rand = rng.random
        return [low + span * rand() for _ in range(n)]

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class BlockSampler:
    """Pre-draws variates from a distribution in blocks.

    For a stream with a *single consumer*, popping variates from a
    BlockSampler yields exactly the sequence that scalar
    :meth:`Distribution.sample` calls would — for any block size — because
    :meth:`Distribution.sample_block` is bit-identical by construction and
    blocks only reorder *when* draws happen, never their order. The engine
    uses one per task to collapse the per-item service-time call chain
    into a buffer pop.

    Blocks grow geometrically from :data:`FIRST_BLOCK_SIZE` up to
    ``block_size``, so a task that serves a handful of items (a slow
    stage, a replica scaled up just before a scale-down) does not pay for
    a full block of variates it never pops.
    """

    __slots__ = ("dist", "rng", "block_size", "_next_block", "_buf", "_pos")

    def __init__(
        self,
        dist: Distribution,
        rng: random.Random,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1 (got {block_size})")
        self.dist = dist
        self.rng = rng
        self.block_size = block_size
        self._next_block = min(FIRST_BLOCK_SIZE, block_size)
        self._buf: List[float] = []
        self._pos = 0

    def next(self, payload: object = None) -> float:
        """Pop the next variate, refilling the block buffer when empty.

        ``payload`` is ignored: it lets the bound method be a task's
        ``payload -> seconds`` service function with no wrapper around it.
        """
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            n = self._next_block
            buf = self._buf = self.dist.sample_block(self.rng, n)
            self._next_block = min(2 * n, self.block_size)
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def pending(self) -> int:
        """Variates already drawn from the RNG but not yet consumed."""
        return len(self._buf) - self._pos
