"""Property-based tests for vectorized block sampling.

The vectorization PR's correctness contract is *bit-identity*: block
pre-draws may change when variates are pulled from a stream, never which
variates come out. Hypothesis drives arbitrary seeds and block-size
splits against the scalar reference.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.udf import UDF
from repro.simulation.randomness import (
    DEFAULT_BLOCK_SIZE,
    FIRST_BLOCK_SIZE,
    BlockSampler,
    Deterministic,
    Distribution,
    Exponential,
    Gamma,
    RandomStreams,
    Uniform,
    _LOG4,
    _SG_MAGICCONST,
)

#: every distribution's sample_block runs its scalar algorithm in one frame;
#: Gamma has one algorithm per shape regime (cv < 1, = 1, > 1)
DISTRIBUTIONS = [
    Deterministic(0.004),
    Exponential(0.01),
    Uniform(0.001, 0.009),
    Gamma(0.004, 0.7),
    Gamma(0.004, 1.0),
    Gamma(0.004, 1.5),
]

_seeds = st.integers(0, 2**32 - 1)
_splits = st.lists(st.integers(1, 80), min_size=1, max_size=8)

# A parametrized @given test is a staticmethod: as a method, each parameter
# runs it on a new instance, which Hypothesis fails as differing executors
# wherever its pytest plugin is not registered.


# ----------------------------------------------------------------------
# Distribution.sample_block / BlockSampler: same contract, higher level
# ----------------------------------------------------------------------


class TestSampleBlock:
    @staticmethod
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    @given(seed=_seeds, n=st.integers(0, 100))
    @settings(max_examples=30)
    def test_block_matches_scalar_samples(dist, seed, n):
        scalar_rng = random.Random(seed)
        block_rng = random.Random(seed)
        expected = [dist.sample(scalar_rng) for _ in range(n)]
        assert dist.sample_block(block_rng, n) == expected
        # both consumers leave the stream at the same point
        assert block_rng.getstate() == scalar_rng.getstate()

    @staticmethod
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    @given(seed=_seeds, splits=_splits)
    @settings(max_examples=30)
    def test_any_split_matches_the_scalar_sequence(dist, seed, splits):
        """Blocks of any sizes concatenate to the scalar-only sequence."""
        scalar_rng = random.Random(seed)
        block_rng = random.Random(seed)
        drawn = []
        for size in splits:
            drawn.extend(dist.sample_block(block_rng, size))
        assert drawn == [dist.sample(scalar_rng) for _ in range(sum(splits))]
        assert block_rng.getstate() == scalar_rng.getstate()

    @pytest.mark.parametrize("cv", [0.7, 1.0, 1.5], ids=["cheng", "exponential", "ahrens-dieter"])
    def test_gamma_block_is_the_running_interpreters_gammavariate(self, cv):
        """Against ``random`` itself, not ``sample``: a stdlib change fails here."""
        dist = Gamma(0.004, cv)
        shape = dist._shape
        # gammavariate picks its algorithm by shape > 1, == 1, < 1
        assert (shape > 1.0, shape == 1.0) == (cv < 1.0, cv == 1.0)
        stdlib_rng = random.Random(2015)
        block_rng = random.Random(2015)
        expected = [stdlib_rng.gammavariate(shape, dist._scale) for _ in range(500)]
        assert dist.sample_block(block_rng, 500) == expected
        assert block_rng.getstate() == stdlib_rng.getstate()

    def test_magic_constants_are_the_stdlibs(self):
        assert _LOG4 == random.LOG4
        assert _SG_MAGICCONST == random.SG_MAGICCONST

    @staticmethod
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    @given(
        seed=_seeds,
        # below, at and above the first block: fixed-size refills, and
        # the mixed 32 -> 64 -> ... -> block_size sequence of a growing one
        block_size=st.one_of(st.integers(1, 70), st.sampled_from([128, 200, 256])),
        n=st.integers(1, 600),
    )
    @settings(max_examples=30)
    def test_block_sampler_pops_the_scalar_sequence(dist, seed, block_size, n):
        """Popping n variates == n scalar draws, for any block size."""
        scalar_rng = random.Random(seed)
        expected = [dist.sample(scalar_rng) for _ in range(n)]
        sampler = BlockSampler(dist, random.Random(seed), block_size)
        assert [sampler.next() for _ in range(n)] == expected

    @pytest.mark.parametrize(
        "block_size, blocks",
        [
            (DEFAULT_BLOCK_SIZE, [32, 64, 128, 256, 256]),
            (200, [32, 64, 128, 200, 200]),
            (FIRST_BLOCK_SIZE, [32, 32, 32]),
            (8, [8, 8, 8]),
        ],
    )
    def test_blocks_grow_geometrically_up_to_the_block_size(self, block_size, blocks):
        """A short-lived task pre-draws 32 variates, not a full block."""
        drawn = []

        class Counting(Deterministic):
            def sample_block(self, rng, n):
                drawn.append(n)
                return super().sample_block(rng, n)

        sampler = BlockSampler(Counting(0.004), random.Random(1), block_size)
        for _ in range(sum(blocks) - 1):
            sampler.next()
        assert drawn == blocks
        assert sampler.pending() == 1

    @given(seed=_seeds)
    def test_pending_counts_predrawn_variates(self, seed):
        sampler = BlockSampler(Exponential(0.01), random.Random(seed), 8)
        assert sampler.pending() == 0
        sampler.next()
        assert sampler.pending() == 7

    def test_invalid_block_size_rejected(self):
        with pytest.raises(ValueError):
            BlockSampler(Exponential(0.01), random.Random(1), 0)

    @given(seed=_seeds)
    def test_streams_same_name_same_sequence(self, seed):
        """RandomStreams naming, not creation order, fixes the stream."""
        first = RandomStreams(seed)
        first.get("other")  # creation order must not matter
        second = RandomStreams(seed)
        a = [first.get("service:x").random() for _ in range(50)]
        b = [second.get("service:x").random() for _ in range(50)]
        assert a == b


# ----------------------------------------------------------------------
# UDF service-sampler fast path
# ----------------------------------------------------------------------


class _CustomService(UDF):
    def service_time(self, payload, rng):
        return rng.random() * rng.random()

    def process(self, payload):
        return (payload,)


class _PlainUDF(UDF):
    def process(self, payload):
        return (payload,)


class TestServiceSamplerFastPath:
    @staticmethod
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=repr)
    @given(seed=_seeds, n=st.integers(1, 120))
    @settings(max_examples=20)
    def test_sampler_matches_service_time(dist, seed, n):
        udf = _PlainUDF(service_dist=dist)
        scalar_rng = random.Random(seed)
        expected = [udf.service_time(None, scalar_rng) for _ in range(n)]
        sampler = udf.make_service_sampler(random.Random(seed), block_size=16)
        assert sampler is not None
        assert [sampler(None) for _ in range(n)] == expected

    def test_custom_service_time_disables_the_fast_path(self):
        """An overriding UDF's sampler is its ``service_time``, per item."""
        udf = _CustomService(service_dist=Exponential(0.01))
        sampler = udf.make_service_sampler(random.Random(1))
        scalar_rng = random.Random(1)
        assert [sampler(None) for _ in range(5)] == [
            udf.service_time(None, scalar_rng) for _ in range(5)
        ]

    def test_engine_always_asks_the_udf_for_its_sampler(self):
        """No switch: a plain UDF runs block-drawn, an overriding one per item."""
        from repro.engine.engine import StreamProcessingEngine
        from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
        from repro.graphs.job_graph import JobGraph
        from repro.workloads.rates import ConstantRate

        scalar_calls = []

        class Counting(_CustomService):
            def service_time(self, payload, rng):
                scalar_calls.append(payload)
                return 0.001

        graph = JobGraph("paths")
        src = graph.add_vertex("Src", lambda: SourceUDF(lambda now, rng: 0))
        plain = graph.add_vertex(
            "Plain", lambda: MapUDF(lambda x: x, service_dist=Exponential(0.001))
        )
        custom = graph.add_vertex("Custom", Counting)
        sink = graph.add_vertex("Snk", SinkUDF)
        for a, b in ((src, plain), (plain, custom), (custom, sink)):
            graph.connect(a, b)
        src.rate_profile = ConstantRate(100.0)
        engine = StreamProcessingEngine()
        job = engine.submit(graph)
        engine.run(2.0)
        (plain_task,) = job.runtime.vertex("Plain").tasks
        (custom_task,) = job.runtime.vertex("Custom").tasks
        # the sampler's own bound pop: no wrapper frame per service start
        service_fn = plain_task._service_fn
        assert isinstance(service_fn.__self__, BlockSampler)
        assert service_fn.__func__ is BlockSampler.next
        # an overriding UDF is asked per item, through its sampler
        assert len(scalar_calls) >= custom_task.items_processed > 0
        calls = len(scalar_calls)
        assert custom_task._service_fn("probe") == 0.001
        assert scalar_calls[calls:] == ["probe"]

    def test_topic_filter_keeps_its_payload_dispatch(self):
        """Hot-topic lists cost a constant and no draw; tweets pop the block."""
        from repro.workloads.tweets import Tweet
        from repro.workloads.twitter_job import MergedTopics, TopicFilterUDF

        udf = TopicFilterUDF(Gamma(0.004, 0.7), Deterministic(0.0001))
        scalar_rng = random.Random(3)
        sampler = udf.make_service_sampler(random.Random(3), block_size=4)
        tweet, topics = Tweet("t", ("#a",), "u"), MergedTopics(("#a",))
        payloads = [tweet, topics, tweet, tweet, topics, tweet, tweet, tweet]
        assert [sampler(p) for p in payloads] == [udf.service_time(p, scalar_rng) for p in payloads]

    def test_deterministic_sampler_consumes_no_draws(self):
        udf = _PlainUDF(service_dist=Deterministic(0.002))
        rng = random.Random(9)
        sampler = udf.make_service_sampler(rng)
        assert [sampler(None) for _ in range(5)] == [0.002] * 5
        assert rng.getstate() == random.Random(9).getstate()

