"""Unit and property tests for the Rebalance technique (Algorithm 1).

Algorithm 1 is checked against :func:`greedy_minimum`, the exact minimum
at any width; :func:`brute_force_minimum` cross-checks that oracle on
sequences of up to four vertices.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import INFINITY, SequenceLatencyModel, VertexModel
from repro.core.rebalance import brute_force_minimum, greedy_minimum, rebalance


def model_of(*specs, p_max=12):
    """specs: (lam, service, variability) per vertex."""
    models = []
    for i, (lam, s, var) in enumerate(specs, start=1):
        models.append(
            VertexModel(f"v{i}", 1, 1, p_max, lam, s, var, fitting_coefficient=1.0)
        )
    return SequenceLatencyModel("js", models)


def exact_minimum(model, budget):
    """``(parallelism by name, feasible)`` of ``greedy_minimum`` on ``model``.

    A fixed vertex is one whose bounds are both its current parallelism.
    """
    models = model.models
    parallelism, feasible = greedy_minimum(
        [m.waiting_time for m in models],
        [m.p_min if m.scalable else m.p_current for m in models],
        [m.p_max if m.scalable else m.p_current for m in models],
        budget,
    )
    chosen = {m.name: p for m, p in zip(models, parallelism) if m.scalable}
    return chosen, feasible


_vertex = st.tuples(
    st.floats(min_value=5.0, max_value=300.0),
    st.floats(min_value=0.0005, max_value=0.02),
    st.floats(min_value=0.05, max_value=2.0),
)


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
        optimum, feasible = exact_minimum(model, budget)
        assert feasible and result.feasible
        assert sum(optimum.values()) == brute_force_minimum(model, budget)[0]
        # Gradient descent with variable step is near-optimal; allow +1.
        assert result.total_parallelism <= sum(optimum.values()) + 1

    def test_matches_bruteforce_three_vertices(self):
        model = model_of(
            (100.0, 0.004, 0.9), (60.0, 0.006, 0.7), (150.0, 0.003, 1.1), p_max=8
        )
        budget = 0.005
        result = rebalance(model, budget)
        optimum, feasible = exact_minimum(model, budget)
        assert feasible
        assert sum(optimum.values()) == brute_force_minimum(model, budget)[0]
        assert result.total_parallelism <= sum(optimum.values()) + 1

    @given(
        specs=st.integers(1, 64).flatmap(
            lambda n: st.lists(_vertex, min_size=n, max_size=n)
        ),
        budget_per_vertex=st.floats(min_value=0.0002, max_value=0.05),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_feasible_and_near_optimal(self, specs, budget_per_vertex):
        model = model_of(*specs, p_max=9)
        budget = budget_per_vertex * len(specs)
        result = rebalance(model, budget)
        optimum, feasible = exact_minimum(model, budget)
        assert result.feasible == feasible
        if feasible:
            assert model.total_waiting_time(result.parallelism) <= budget
            opt = sum(optimum.values())
            assert opt <= result.total_parallelism
            # The variable step size deliberately overshoots (the paper:
            # "most scale-ups are slightly larger than necessary"), so
            # only a loose optimality bound holds in general.
            assert result.total_parallelism <= 2 * opt + len(specs) + 2

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


class TestGreedyMinimum:
    @given(
        specs=st.lists(_vertex, min_size=1, max_size=4),
        budget=st.floats(min_value=0.0002, max_value=0.05),
        fixed=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force_on_small_sequences(self, specs, budget, fixed):
        model = model_of(*specs, p_max=9)
        if fixed:
            # one more, non-scalable vertex adds a constant wait
            model.models.insert(
                0, VertexModel("fixed", 3, 3, 3, 100.0, 0.004, 1.0, scalable=False)
            )
        optimum, feasible = exact_minimum(model, budget)
        brute = brute_force_minimum(model, budget)
        assert feasible == (brute is not None)
        if feasible:
            assert sum(optimum.values()) == brute[0]
            assert model.total_waiting_time(optimum) <= budget

    def test_feasible_start_is_returned_unchanged(self):
        waits = [lambda p: 1.0 / p, lambda p: 2.0 / p]
        assert greedy_minimum(waits, [2, 3], [9, 9], 10.0) == ([2, 3], True)

    def test_each_step_takes_the_largest_fall(self):
        # v0 falls 1/2 - 1/3, v1 falls 3/2 - 1: v1 moves first
        waits = [lambda p: 1.0 / p, lambda p: 3.0 / p]
        assert greedy_minimum(waits, [2, 2], [9, 9], 1.5) == ([2, 3], True)

    def test_a_tie_goes_to_the_first_vertex(self):
        waits = [lambda p: 1.0 / p, lambda p: 1.0 / p]
        assert greedy_minimum(waits, [1, 1], [9, 9], 1.5) == ([2, 1], True)

    def test_an_unstable_vertex_is_stabilized_first(self):
        unstable_below_3 = lambda p: INFINITY if p < 3 else 0.5
        waits = [lambda p: 10.0 / p, unstable_below_3]
        assert greedy_minimum(waits, [1, 1], [9, 9], 100.0) == ([1, 3], True)

    def test_infeasible_ends_at_the_upper_bounds(self):
        waits = [lambda p: 1.0 / p, lambda p: 1.0 / p]
        assert greedy_minimum(waits, [1, 2], [4, 3], 0.1) == ([4, 3], False)
