"""Unit and property tests for the Rebalance technique (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import INFINITY, SequenceLatencyModel, VertexModel
from repro.core.rebalance import brute_force_minimum, rebalance


def model_of(*specs, p_max=12):
    """specs: (lam, service, variability) per vertex."""
    models = []
    for i, (lam, s, var) in enumerate(specs, start=1):
        models.append(
            VertexModel(f"v{i}", 1, 1, p_max, lam, s, var, fitting_coefficient=1.0)
        )
    return SequenceLatencyModel("js", models)


class TestBasics:
    def test_single_vertex_exact(self):
        model = model_of((100.0, 0.004, 1.0))
        result = rebalance(model, 0.002)
        assert result.feasible
        (p,) = result.parallelism.values()
        m = model.models[0]
        assert m.waiting_time(p) <= 0.002
        assert p == m.p_for_wait(0.002)

    def test_infeasible_returns_max_scaleout(self):
        model = model_of((1000.0, 0.01, 1.0), p_max=8)  # b = 10 > p_max
        result = rebalance(model, 0.001)
        assert not result.feasible
        assert result.parallelism == {"v1": 8}

    def test_result_respects_budget(self):
        model = model_of((100.0, 0.004, 1.0), (200.0, 0.002, 0.5), (50.0, 0.008, 1.2))
        result = rebalance(model, 0.003)
        assert result.feasible
        assert model.total_waiting_time(result.parallelism) <= 0.003

    def test_minimum_parallelism_overrides_respected(self):
        model = model_of((100.0, 0.004, 1.0), (200.0, 0.002, 0.5))
        free = rebalance(model, 0.005)
        pinned = rebalance(model, 0.005, min_parallelism={"v1": 9})
        assert pinned.parallelism["v1"] >= 9
        assert pinned.parallelism["v1"] >= free.parallelism["v1"]

    def test_bounds_respected(self):
        model = model_of((300.0, 0.01, 1.5), p_max=10)
        result = rebalance(model, 0.0005)
        models = {m.name: m for m in model.models}
        for name, p in result.parallelism.items():
            assert models[name].p_min <= p <= models[name].p_max

    def test_no_scalable_vertices(self):
        m = VertexModel("fixed", 2, 2, 2, 100.0, 0.004, 1.0, scalable=False)
        model = SequenceLatencyModel("js", [m])
        generous = rebalance(model, 10.0)
        assert generous.feasible
        assert generous.parallelism == {}
        tight = rebalance(model, 1e-9)
        assert not tight.feasible

    def test_fixed_vertex_contributes_wait(self):
        fixed = VertexModel("fixed", 2, 2, 2, 100.0, 0.004, 1.0, scalable=False)
        elastic = VertexModel("elastic", 1, 1, 64, 100.0, 0.004, 1.0)
        model = SequenceLatencyModel("js", [fixed, elastic])
        budget = fixed.waiting_time(2) + 0.0005
        result = rebalance(model, budget)
        assert result.feasible
        assert elastic.waiting_time(result.parallelism["elastic"]) <= 0.0005 + 1e-12

    def test_unstable_fixed_vertex_infeasible(self):
        fixed = VertexModel("fixed", 1, 1, 1, 300.0, 0.01, 1.0, scalable=False)  # rho = 3
        elastic = VertexModel("elastic", 1, 1, 64, 10.0, 0.001, 1.0)
        model = SequenceLatencyModel("js", [fixed, elastic])
        result = rebalance(model, 0.001)
        assert not result.feasible

    def test_zero_wait_vertices_stay_minimal(self):
        model = model_of((0.0, 0.004, 1.0), (100.0, 0.004, 1.0))
        result = rebalance(model, 0.002)
        assert result.parallelism["v1"] == 1

    def test_predicted_wait_reported(self):
        model = model_of((100.0, 0.004, 1.0))
        result = rebalance(model, 0.002)
        assert result.predicted_wait == pytest.approx(
            model.total_waiting_time(result.parallelism)
        )

    def test_total_parallelism_property(self):
        model = model_of((100.0, 0.004, 1.0), (100.0, 0.004, 1.0))
        result = rebalance(model, 0.002)
        assert result.total_parallelism == sum(result.parallelism.values())


class TestOptimality:
    def test_matches_bruteforce_two_vertices(self):
        model = model_of((120.0, 0.005, 1.0), (80.0, 0.006, 0.8), p_max=10)
        budget = 0.004
        result = rebalance(model, budget)
        brute = brute_force_minimum(model, budget)
        assert brute is not None
        assert result.feasible
        # Gradient descent with variable step is near-optimal; allow +1.
        assert result.total_parallelism <= brute[0] + 1

    def test_matches_bruteforce_three_vertices(self):
        model = model_of(
            (100.0, 0.004, 0.9), (60.0, 0.006, 0.7), (150.0, 0.003, 1.1), p_max=8
        )
        budget = 0.005
        result = rebalance(model, budget)
        brute = brute_force_minimum(model, budget)
        assert brute is not None
        assert result.total_parallelism <= brute[0] + 1

    @given(
        specs=st.lists(
            st.tuples(
                st.floats(min_value=5.0, max_value=300.0),
                st.floats(min_value=0.0005, max_value=0.02),
                st.floats(min_value=0.05, max_value=2.0),
            ),
            min_size=1,
            max_size=3,
        ),
        budget=st.floats(min_value=0.0002, max_value=0.05),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_feasible_and_near_optimal(self, specs, budget):
        model = model_of(*specs, p_max=9)
        result = rebalance(model, budget)
        brute = brute_force_minimum(model, budget)
        if brute is None:
            assert not result.feasible
        else:
            assert result.feasible
            assert model.total_waiting_time(result.parallelism) <= budget + 1e-12
            # The variable step size deliberately overshoots (the paper:
            # "most scale-ups are slightly larger than necessary"), so
            # only a loose optimality bound holds in general.
            assert result.total_parallelism <= 2 * brute[0] + len(specs) + 2

    @given(
        budget_small=st.floats(min_value=0.0005, max_value=0.002),
        budget_large=st.floats(min_value=0.005, max_value=0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_tighter_budget_needs_no_fewer_tasks(self, budget_small, budget_large):
        model = model_of((120.0, 0.005, 1.0), (90.0, 0.004, 0.8))
        small = rebalance(model, budget_small)
        large = rebalance(model, budget_large)
        if small.feasible and large.feasible:
            assert small.total_parallelism >= large.total_parallelism
