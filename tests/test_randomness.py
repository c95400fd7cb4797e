"""Unit tests for random streams and distributions."""

import math
import random

import pytest

from repro.simulation.randomness import (
    Deterministic,
    Distribution,
    Exponential,
    Gamma,
    RandomStreams,
    Uniform,
)


def sample_stats(dist, n=20000, seed=7):
    rng = random.Random(seed)
    values = [dist.sample(rng) for _ in range(n)]
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    cv = math.sqrt(var) / mean if mean else 0.0
    return mean, cv


class TestRandomStreams:
    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_independent(self):
        streams = RandomStreams(1)
        a = streams.get("a").random()
        b = streams.get("b").random()
        assert a != b

    def test_deterministic_across_instances(self):
        x = RandomStreams(42).get("svc").random()
        y = RandomStreams(42).get("svc").random()
        assert x == y

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(42)
        s1.get("other")
        v1 = s1.get("svc").random()
        s2 = RandomStreams(42)
        v2 = s2.get("svc").random()
        assert v1 == v2

    def test_different_root_seeds_differ(self):
        assert RandomStreams(1).get("x").random() != RandomStreams(2).get("x").random()

    def test_fork_derives_new_seed(self):
        base = RandomStreams(5)
        fork = base.fork(3)
        assert fork.root_seed != base.root_seed
        assert base.fork(3).root_seed == fork.root_seed


class TestDeterministic:
    def test_sample_is_constant(self, rng):
        d = Deterministic(0.25)
        assert all(d.sample(rng) == 0.25 for _ in range(10))

    def test_mean_and_cv(self):
        d = Deterministic(3.0)
        assert d.mean == 3.0
        assert d.cv == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestExponential:
    def test_mean_matches(self):
        mean, cv = sample_stats(Exponential(0.01))
        assert mean == pytest.approx(0.01, rel=0.05)

    def test_cv_is_one(self):
        _, cv = sample_stats(Exponential(0.5))
        assert cv == pytest.approx(1.0, rel=0.08)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestGamma:
    @pytest.mark.parametrize("mean,cv", [(0.01, 0.3), (1.0, 0.7), (5.0, 1.5)])
    def test_mean_and_cv_match(self, mean, cv):
        got_mean, got_cv = sample_stats(Gamma(mean, cv))
        assert got_mean == pytest.approx(mean, rel=0.07)
        assert got_cv == pytest.approx(cv, rel=0.12)

    def test_samples_positive(self, rng):
        g = Gamma(0.002, 0.7)
        assert all(g.sample(rng) > 0 for _ in range(100))

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            Gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            Gamma(1.0, 0.0)


class TestUniform:
    def test_mean(self):
        mean, _ = sample_stats(Uniform(1.0, 3.0))
        assert mean == pytest.approx(2.0, rel=0.03)

    def test_bounds_respected(self, rng):
        u = Uniform(0.5, 0.9)
        for _ in range(100):
            value = u.sample(rng)
            assert 0.5 <= value <= 0.9

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 1.0)


class TestBaseClass:
    def test_sample_not_implemented(self, rng):
        with pytest.raises(NotImplementedError):
            Distribution().sample(rng)
