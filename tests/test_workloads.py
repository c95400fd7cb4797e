"""Unit tests for rate profiles, PrimeTester, tweets and sentiment."""

import math
import random

import pytest

from repro.workloads.primetester import (
    PrimeTesterParams,
    build_primetester_job,
    is_probable_prime,
    phase_boundaries,
    primetester_constraint,
)
from repro.workloads.rates import (
    ConstantRate,
    DiurnalRate,
    PiecewiseRate,
    step_phase_segments,
)
from repro.workloads.traces import TraceRateProfile
from repro.workloads.sentiment import (
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
    SentimentAnalyzer,
)
from repro.workloads.keys import ZipfKeySampler
from repro.workloads.tweets import Tweet, TweetTraceGenerator, TweetTraceParams


class TestConstantRate:
    def test_rate(self):
        assert ConstantRate(50.0).rate(123.0) == 50.0

    def test_deterministic_interval(self, rng):
        profile = ConstantRate(50.0, jitter="deterministic")
        assert profile.next_interval(0.0, rng) == pytest.approx(0.02)

    def test_exponential_interval_mean(self, rng):
        profile = ConstantRate(100.0)
        samples = [profile.next_interval(0.0, rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(0.01, rel=0.05)

    def test_zero_rate_polls(self, rng):
        assert ConstantRate(0.0).next_interval(0.0, rng) == 0.1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantRate(-1.0)


@pytest.mark.parametrize("make", [
    lambda jitter: ConstantRate(10.0, jitter=jitter),
    lambda jitter: PiecewiseRate([(0.0, 10.0)], jitter=jitter),
    lambda jitter: DiurnalRate(10.0, 0.0, 60.0, jitter=jitter),
    lambda jitter: TraceRateProfile([(0.0, 10.0), (1.0, 20.0)], jitter=jitter),
], ids=["constant", "piecewise", "diurnal", "trace"])
def test_a_misspelt_jitter_is_rejected_not_poisson(make):
    """Any name but the two laws used to mean exponential arrivals."""
    with pytest.raises(ValueError, match="'exponential' or 'deterministic'.*'determinstic'"):
        make("determinstic")
    assert make("deterministic").next_interval(0.0, random.Random(1)) == 0.1
    assert make("exponential").jitter == "exponential"


class TestPiecewiseRate:
    def test_segment_lookup(self):
        profile = PiecewiseRate([(0.0, 10.0), (5.0, 20.0), (10.0, 5.0)])
        assert profile.rate(0.0) == 10.0
        assert profile.rate(4.999) == 10.0
        assert profile.rate(5.0) == 20.0
        assert profile.rate(100.0) == 5.0

    def test_before_first_segment_zero(self):
        profile = PiecewiseRate([(5.0, 20.0)])
        assert profile.rate(1.0) == 0.0

    def test_end_time(self):
        assert PiecewiseRate([(0.0, 1.0), (9.0, 2.0)]).end_time == 9.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseRate([(5.0, 1.0), (2.0, 2.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PiecewiseRate([])


class TestStepPhases:
    def test_phase_plan_structure(self):
        segments = step_phase_segments(10.0, 100.0, increment_steps=3, step_duration=10.0)
        rates = [r for _, r in segments]
        assert rates[0] == 10.0              # warm-up
        assert rates[1:4] == [40.0, 70.0, 100.0]  # increments
        assert rates[4] == 100.0             # plateau (one extra step)
        assert rates[5:7] == [70.0, 40.0]    # decrements
        assert rates[-1] == 10.0             # back to warm-up

    def test_segment_times_monotone(self):
        segments = step_phase_segments(10.0, 100.0, 4, 7.5)
        times = [t for t, _ in segments]
        assert times == sorted(times)
        assert times[1] - times[0] == 7.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            step_phase_segments(10.0, 100.0, 0, 10.0)
        with pytest.raises(ValueError):
            step_phase_segments(100.0, 10.0, 3, 10.0)


class TestDiurnalRate:
    def test_oscillates_around_base(self):
        profile = DiurnalRate(100.0, 0.5, period=100.0)
        rates = [profile.rate(t) for t in range(0, 100, 5)]
        assert min(rates) == pytest.approx(50.0, rel=0.05)
        assert max(rates) == pytest.approx(150.0, rel=0.05)

    def test_starts_at_trough(self):
        profile = DiurnalRate(100.0, 0.5, period=100.0)
        assert profile.rate(0.0) == pytest.approx(50.0)

    def test_burst_multiplies(self):
        profile = DiurnalRate(100.0, 0.0, period=100.0, bursts=[(10.0, 5.0, 3.0)])
        assert profile.rate(9.9) == pytest.approx(100.0)
        assert profile.rate(12.0) == pytest.approx(300.0)
        assert profile.rate(15.0) == pytest.approx(100.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            DiurnalRate(0.0, 0.5, 100.0)
        with pytest.raises(ValueError):
            DiurnalRate(10.0, 1.5, 100.0)
        with pytest.raises(ValueError):
            DiurnalRate(10.0, 0.5, 0.0)


class TestMillerRabin:
    KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, 2**61 - 1]
    KNOWN_COMPOSITES = [1, 4, 9, 91, 561, 7917, 104730, 2**61 - 3]

    @pytest.mark.parametrize("n", KNOWN_PRIMES)
    def test_primes_detected(self, n):
        assert is_probable_prime(n)

    @pytest.mark.parametrize("n", KNOWN_COMPOSITES)
    def test_composites_rejected(self, n):
        assert not is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat but not Miller-Rabin.
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)

    def test_with_random_witnesses(self):
        rng = random.Random(1)
        assert is_probable_prime(104729, rng=rng)
        assert not is_probable_prime(104731 * 3, rng=rng)

    def test_agrees_with_trial_division(self):
        def slow_prime(n):
            if n < 2:
                return False
            return all(n % d for d in range(2, int(math.isqrt(n)) + 1))

        for n in range(2, 500):
            assert is_probable_prime(n) == slow_prime(n), n


class TestPrimeTesterJob:
    def test_topology(self):
        graph, profile = build_primetester_job(PrimeTesterParams())
        assert set(graph.vertices) == {"Source", "PrimeTester", "Sink"}
        assert graph.edge_between("Source", "PrimeTester").pattern == "round_robin"
        assert graph.vertex("Source").rate_profile is profile

    def test_parallelism_from_params(self):
        params = PrimeTesterParams(n_sources=3, n_testers=7, n_sinks=2,
                                   tester_min=1, tester_max=20)
        graph, _ = build_primetester_job(params)
        assert graph.vertex("Source").parallelism == 3
        assert graph.vertex("PrimeTester").parallelism == 7
        assert graph.vertex("PrimeTester").elastic

    def test_rate_profile_covers_phases(self):
        params = PrimeTesterParams(warmup_rate=10, peak_rate=100,
                                   increment_steps=3, step_duration=10.0)
        _, profile = build_primetester_job(params)
        assert profile.rate(5.0) == 10.0
        assert profile.rate(35.0) == 100.0  # peak reached

    def test_constraint_sequence_shape(self):
        graph, _ = build_primetester_job(PrimeTesterParams())
        constraint = primetester_constraint(graph, 0.02)
        assert constraint.bound == 0.02
        assert constraint.sequence.vertex_names() == ["PrimeTester"]
        assert [e.name for e in constraint.sequence.edges] == [
            "Source->PrimeTester",
            "PrimeTester->Sink",
        ]

    def test_phase_boundaries(self):
        params = PrimeTesterParams(increment_steps=3, step_duration=10.0, plateau_steps=1)
        boundaries = dict(phase_boundaries(params))
        assert boundaries["warm-up"] == 0.0
        assert boundaries["increment"] == 10.0
        assert boundaries["plateau"] == 40.0
        assert boundaries["decrement"] == 50.0

    def test_generated_numbers_have_requested_bits(self, rng):
        params = PrimeTesterParams(number_bits=32)
        graph, _ = build_primetester_job(params)
        udf = graph.vertex("Source").udf_factory()
        for _ in range(10):
            n = udf.generate(0.0, rng)
            assert n.bit_length() == 32
            assert n % 2 == 1


class TestTweets:
    def test_generates_tweets(self, rng):
        gen = TweetTraceGenerator()
        tweet = gen.generate(0.0, rng)
        assert isinstance(tweet, Tweet)
        assert 1 <= len(tweet.topics) <= 3
        assert tweet.topics[0].startswith("#topic")
        assert tweet.text

    def test_zipf_popularity_skew(self, rng):
        gen = TweetTraceGenerator(TweetTraceParams(n_topics=50, zipf_s=1.2))
        counts = {}
        for _ in range(3000):
            t = gen.generate(0.0, rng)
            counts[t.topics[0]] = counts.get(t.topics[0], 0) + 1
        top = counts.get("#topic000", 0)
        mid = counts.get("#topic025", 0)
        assert top > 5 * max(1, mid)

    def test_burst_concentrates_topic(self, rng):
        params = TweetTraceParams(bursts=[(10.0, 20.0, 7, 0.9)])
        gen = TweetTraceGenerator(params)
        inside = sum(
            gen.generate(15.0, rng).topics[0] == "#topic007" for _ in range(500)
        )
        outside = sum(
            gen.generate(5.0, rng).topics[0] == "#topic007" for _ in range(500)
        )
        assert inside > 400
        assert outside < 100

    def test_invalid_topic_count_rejected(self):
        with pytest.raises(ValueError):
            TweetTraceGenerator(TweetTraceParams(n_topics=0))

    @pytest.mark.parametrize("n_keys", [1, 2, 3, 200])
    def test_zipf_rank_is_the_first_cdf_knot_at_or_above_the_draw(self, n_keys):
        """Inverse-CDF semantics at every knot, both ends, and in between."""
        sampler = ZipfKeySampler(n_keys, 1.1)
        cdf = sampler._cdf

        class Fixed(random.Random):
            def random(self):
                return self.value

        fixed = Fixed()
        draws = [0.0, 0.5, 1.0]
        for knot in cdf:
            draws += [knot, math.nextafter(knot, 0.0), math.nextafter(knot, 2.0)]
        for u in draws:
            fixed.value = u
            expected = next((i for i, knot in enumerate(cdf) if knot >= u), n_keys - 1)
            assert sampler.sample_index(fixed) == expected


class TestSentiment:
    def test_positive(self):
        assert SentimentAnalyzer().classify("i love this, awesome day") == POSITIVE

    def test_negative(self):
        assert SentimentAnalyzer().classify("what a terrible, awful mess") == NEGATIVE

    def test_neutral(self):
        assert SentimentAnalyzer().classify("watching the news right now") == NEUTRAL

    def test_negation_flips(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("not good") < 0
        assert analyzer.score("not bad") > 0

    def test_score_sums(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.score("love love hate") == 2 + 2 - 2

    def test_classify_with_score(self):
        analyzer = SentimentAnalyzer()
        assert analyzer.classify("i love it") == POSITIVE
        assert analyzer.score("i love it") >= 1

    def test_threshold(self):
        strict = SentimentAnalyzer(threshold=3)
        assert strict.classify("good") == NEUTRAL

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            SentimentAnalyzer(threshold=0)

    def test_custom_lexicon(self):
        analyzer = SentimentAnalyzer(lexicon={"rocket": 2})
        assert analyzer.classify("rocket launch") == POSITIVE
