"""Unit and property tests for the queueing latency model (Sec. IV-C)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import (
    INFINITY,
    SequenceLatencyModel,
    VertexModel,
    fit_coefficient,
    kingman_waiting_time,
)
from repro.qos.summary import EdgeSummary, VertexSummary


class TestKingman:
    def test_zero_load_zero_wait(self):
        assert kingman_waiting_time(0.0, 0.01, 1.0, 1.0) == 0.0

    def test_saturated_is_infinite(self):
        assert kingman_waiting_time(100.0, 0.01, 1.0, 1.0) == INFINITY
        assert kingman_waiting_time(200.0, 0.01, 1.0, 1.0) == INFINITY

    def test_mm1_special_case(self):
        # For M/M/1 (cA = cS = 1), Kingman is exact: W = rho/(mu - lambda).
        lam, s = 50.0, 0.01
        rho = lam * s
        expected = rho / (1 / s - lam)
        assert kingman_waiting_time(lam, s, 1.0, 1.0) == pytest.approx(expected)

    def test_md1_special_case(self):
        # M/D/1 (cS = 0) halves the M/M/1 wait.
        lam, s = 50.0, 0.01
        mm1 = kingman_waiting_time(lam, s, 1.0, 1.0)
        md1 = kingman_waiting_time(lam, s, 1.0, 0.0)
        assert md1 == pytest.approx(mm1 / 2)

    def test_monotone_in_utilization(self):
        waits = [kingman_waiting_time(lam, 0.01, 1.0, 1.0) for lam in (10, 50, 90)]
        assert waits[0] < waits[1] < waits[2]

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            kingman_waiting_time(-1.0, 0.01, 1.0, 1.0)


def make_model(
    lam=100.0, s=0.004, var=1.0, p=4, p_min=1, p_max=32, e=1.0, scalable=True
):
    return VertexModel(
        "v", p_current=p, p_min=p_min, p_max=p_max,
        arrival_rate=lam, service_mean=s, variability=var,
        fitting_coefficient=e, scalable=scalable,
    )


class TestVertexModel:
    def test_current_wait_matches_fitted_kingman(self):
        m = make_model(lam=100.0, s=0.004, var=1.0, p=4, e=1.0)
        # At p = p_current the model must equal e * Kingman of the summary.
        expected = kingman_waiting_time(100.0, 0.004, 1.0, 1.0)
        assert m.waiting_time(4) == pytest.approx(expected)

    def test_fitting_coefficient_scales_wait(self):
        base = make_model(e=1.0).waiting_time(4)
        fitted = make_model(e=2.5).waiting_time(4)
        assert fitted == pytest.approx(2.5 * base)

    def test_wait_infinite_at_or_below_b(self):
        m = make_model(lam=100.0, s=0.004, p=4)  # b = 1.6
        assert m.waiting_time(1) == INFINITY
        assert m.waiting_time(2) < INFINITY

    def test_wait_monotonically_decreasing(self):
        m = make_model()
        waits = [m.waiting_time(p) for p in range(2, 20)]
        assert all(a > b for a, b in zip(waits, waits[1:]))

    def test_marginal_gain_nonpositive(self):
        m = make_model()
        for p in range(2, 20):
            assert m.marginal_gain(p) <= 0

    def test_marginal_gain_infinite_from_instability(self):
        m = make_model(lam=100.0, s=0.004, p=4)
        assert m.marginal_gain(1) == -INFINITY

    def test_p_for_wait_is_minimal(self):
        m = make_model()
        for w in (0.0005, 0.002, 0.01):
            p = m.p_for_wait(w)
            assert m.waiting_time(p) <= w
            if p > 1:
                assert m.waiting_time(p - 1) > w

    def test_p_for_wait_nonpositive_budget_gives_pmax(self):
        m = make_model()
        assert m.p_for_wait(0.0) == m.p_max
        assert m.p_for_wait(-1.0) == m.p_max

    def test_p_for_marginal_matches_bruteforce(self):
        m = make_model()
        for delta in (-0.01, -0.001, -0.0001):
            p = m.p_for_marginal(delta)
            # P_delta: the smallest p whose marginal gain is no better
            # (no more negative) than delta.
            assert m.marginal_gain(p) >= delta
            if p > m.min_stable_parallelism():
                assert m.marginal_gain(p - 1) < delta

    def test_min_stable_parallelism(self):
        m = make_model(lam=100.0, s=0.004, p=4)  # b = 1.6
        assert m.min_stable_parallelism() == 2
        assert m.utilization_at(2) < 1.0

    def test_zero_arrivals_zero_wait(self):
        m = make_model(lam=0.0)
        assert m.waiting_time(1) == 0.0

    def test_utilization_extrapolation(self):
        m = make_model(lam=100.0, s=0.004, p=4)  # rho = 0.4 at p=4
        assert m.utilization_at(4) == pytest.approx(0.4)
        assert m.utilization_at(8) == pytest.approx(0.2)
        assert m.utilization_at(2) == pytest.approx(0.8)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            make_model(p=0)
        with pytest.raises(ValueError):
            make_model(lam=-1.0)
        with pytest.raises(ValueError):
            VertexModel("v", 1, 3, 2, 1.0, 0.01, 1.0)

    @given(
        lam=st.floats(min_value=1.0, max_value=500.0),
        s=st.floats(min_value=0.0001, max_value=0.05),
        var=st.floats(min_value=0.01, max_value=3.0),
        p=st.integers(min_value=1, max_value=16),
        w=st.floats(min_value=1e-5, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_p_for_wait_property(self, lam, s, var, p, w):
        m = VertexModel("v", p, 1, 10_000, lam, s, var)
        p_star = m.p_for_wait(w)
        assert m.waiting_time(p_star) <= w + 1e-12
        if p_star > 1:
            assert m.waiting_time(p_star - 1) > w or p_star == m.min_stable_parallelism()


class TestLatencyModelProperties:
    """Hypothesis properties the scaler's arithmetic relies on."""

    @given(
        lam=st.floats(min_value=0.1, max_value=1000.0),
        s=st.floats(min_value=1e-5, max_value=0.1),
        var=st.floats(min_value=0.0, max_value=5.0),
        p=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_waiting_time_nonincreasing_in_parallelism(self, lam, s, var, p):
        # More tasks never predict more queue wait: W(p*) is monotonically
        # non-increasing in p*, which is what makes the policy's binary
        # searches (p_for_wait, p_for_marginal) sound.
        m = VertexModel("v", p_current=p, p_min=1, p_max=10_000,
                        arrival_rate=lam, service_mean=s, variability=var)
        waits = [m.waiting_time(q) for q in range(1, 65)]
        assert all(a >= b for a, b in zip(waits, waits[1:]))

    @given(
        lam=st.floats(min_value=0.1, max_value=1000.0),
        s=st.floats(min_value=1e-5, max_value=0.1),
        var=st.floats(min_value=0.0, max_value=5.0),
        p=st.integers(min_value=1, max_value=64),
        q=st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=200, deadline=None)
    def test_waiting_time_nonnegative_and_finite_when_stable(self, lam, s, var, p, q):
        # Whenever the extrapolated utilization stays below 1 the
        # predicted wait is a finite, non-negative number — the policy
        # never sees NaN or a negative latency budget contribution.
        m = VertexModel("v", p_current=p, p_min=1, p_max=10_000,
                        arrival_rate=lam, service_mean=s, variability=var)
        if m.utilization_at(q) < 1.0:
            w = m.waiting_time(q)
            assert 0.0 <= w < INFINITY
            assert not math.isnan(w)

    @given(
        lam=st.floats(min_value=0.1, max_value=500.0),
        s=st.floats(min_value=1e-5, max_value=0.05),
        var=st.floats(min_value=0.0, max_value=3.0),
        e=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_fitting_coefficient_preserves_monotonicity(self, lam, s, var, e):
        # The measured-reality correction e_jv rescales but never
        # reorders the predictions.
        m = VertexModel("v", 4, 1, 10_000, lam, s, var, fitting_coefficient=e)
        waits = [m.waiting_time(q) for q in range(1, 33)]
        assert all(a >= b for a, b in zip(waits, waits[1:]))
        assert all(w >= 0.0 for w in waits if w < INFINITY)


class TestSequenceModel:
    def test_total_is_sum(self):
        m1 = make_model(lam=50.0)
        m2 = VertexModel("w", 4, 1, 32, 80.0, 0.002, 0.5)
        model = SequenceLatencyModel("js", [m1, m2])
        total = model.total_waiting_time({"v": 4, "w": 4})
        assert total == pytest.approx(m1.waiting_time(4) + m2.waiting_time(4))

    def test_missing_vertex_uses_current_parallelism(self):
        m1 = make_model()
        model = SequenceLatencyModel("js", [m1])
        assert model.total_waiting_time({}) == pytest.approx(m1.waiting_time(m1.p_current))

    def test_infinite_member_makes_total_infinite(self):
        m1 = make_model(lam=100.0, s=0.004, p=4)
        model = SequenceLatencyModel("js", [m1])
        assert model.total_waiting_time({"v": 1}) == INFINITY

    def test_scalable_filter(self):
        m1 = make_model()
        m2 = VertexModel("w", 1, 1, 1, 10.0, 0.001, 1.0, scalable=False)
        model = SequenceLatencyModel("js", [m1, m2])
        assert [m.name for m in model.scalable_models()] == ["v"]


class TestFitCoefficient:
    def vertex_summary(self, lam=100.0, s=0.004, ca=1.0, cs=1.0):
        return VertexSummary("v", 0.004, s, cs, 1.0 / lam, ca, n_tasks=4)

    def test_exact_fit(self):
        vs = self.vertex_summary()
        predicted = kingman_waiting_time(100.0, 0.004, 1.0, 1.0)
        es = EdgeSummary("e", channel_latency=predicted + 0.001, output_batch_latency=0.001, n_channels=4)
        assert fit_coefficient(vs, es) == pytest.approx(1.0, rel=1e-6)

    def test_underprediction_raises_e(self):
        vs = self.vertex_summary()
        predicted = kingman_waiting_time(100.0, 0.004, 1.0, 1.0)
        es = EdgeSummary("e", channel_latency=3 * predicted, output_batch_latency=0.0, n_channels=4)
        assert fit_coefficient(vs, es) == pytest.approx(3.0, rel=1e-6)

    def test_clamped_to_bounds(self):
        vs = self.vertex_summary()
        es = EdgeSummary("e", channel_latency=100.0, output_batch_latency=0.0, n_channels=4)
        assert fit_coefficient(vs, es, bounds=(0.1, 50.0)) == 50.0

    def test_saturated_prediction_falls_back_to_one(self):
        vs = VertexSummary("v", 0.004, 0.02, 1.0, 0.01, 1.0, n_tasks=4)  # rho = 2
        es = EdgeSummary("e", 0.5, 0.0, 4)
        assert fit_coefficient(vs, es) == 1.0

    def test_zero_prediction_falls_back_to_one(self):
        vs = VertexSummary("v", 0.0, 0.0, 0.0, 0.01, 0.0, n_tasks=4)
        es = EdgeSummary("e", 0.5, 0.0, 4)
        assert fit_coefficient(vs, es) == 1.0
