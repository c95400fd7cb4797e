"""Cross-module property-based tests (hypothesis).

These complement the per-module property tests with invariants that span
components: the simulator's global ordering, model/optimizer consistency,
trace-profile interpolation, and the Eq. 5 scaling law.
"""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.latency_model import INFINITY, VertexModel, kingman_waiting_time
from repro.simulation.kernel import Simulator
from repro.workloads.rates import PiecewiseRate, step_phase_segments
from repro.workloads.traces import TraceRateProfile


class TestSimulatorOrdering:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=40),
        cutoff=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_fires_exactly_the_due_events(self, delays, cutoff):
        sim = Simulator()
        count = [0]
        for delay in delays:
            sim.schedule(delay, lambda: count.__setitem__(0, count[0] + 1))
        sim.run(until=cutoff)
        assert count[0] == sum(1 for d in delays if d <= cutoff)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_cancellations_respected(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(rng.uniform(0, 10), lambda i=i: fired.append(i))
            for i in range(20)
        ]
        cancelled = {i for i in range(20) if rng.random() < 0.5}
        for i in cancelled:
            events[i].cancel()
        sim.run()
        assert set(fired) == set(range(20)) - cancelled


class TestLatencyModelLaws:
    @given(
        lam=st.floats(min_value=1.0, max_value=300.0),
        s=st.floats(min_value=0.0005, max_value=0.02),
        var=st.floats(min_value=0.05, max_value=2.0),
        p=st.integers(min_value=1, max_value=12),
        factor=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_eq5_scaling_law(self, lam, s, var, p, factor):
        """Doubling p at fixed total load halves the modelled utilization."""
        model = VertexModel("v", p, 1, 10_000, lam, s, var)
        assert model.utilization_at(p * factor) == pytest.approx(
            model.utilization_at(p) / factor
        )

    @given(
        lam=st.floats(min_value=1.0, max_value=300.0),
        s=st.floats(min_value=0.0005, max_value=0.02),
        var=st.floats(min_value=0.05, max_value=2.0),
        p=st.integers(min_value=1, max_value=12),
    )
    # rho = 1 - 2**-53: the model's b = lam * s * p rounds in its last bit
    @example(lam=50.0, s=math.nextafter(0.02, 0.0), var=1.0, p=3)
    @settings(max_examples=100, deadline=None)
    def test_model_at_current_p_equals_fitted_kingman(self, lam, s, var, p):
        model = VertexModel("v", p, 1, 10_000, lam, s, var, fitting_coefficient=2.0)
        direct = kingman_waiting_time(lam, s, 1.0, 1.0)  # cv's folded into var
        # Reconstruct with the model's variability convention:
        rho = lam * s
        if rho >= 1.0:
            assert model.waiting_time(p) == INFINITY
        else:
            expected = 2.0 * (rho * s / (1 - rho)) * var
            # The model divides by p - b, the test by 1 - rho; both
            # subtractions are exact, but b = rho * p carries one more
            # rounding than rho, and 1 / (1 - rho) amplifies that half-ulp
            # without bound as rho -> 1.
            rel = 1e-9 + sys.float_info.epsilon / (1 - rho)
            assert model.waiting_time(p) == pytest.approx(expected, rel=rel)

    @given(
        lam=st.floats(min_value=1.0, max_value=300.0),
        s=st.floats(min_value=0.0005, max_value=0.02),
        p=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_min_stable_parallelism_is_minimal(self, lam, s, p):
        model = VertexModel("v", p, 1, 10_000, lam, s, 1.0)
        p_min = model.min_stable_parallelism()
        assert model.utilization_at(p_min) < 1.0
        if p_min > 1:
            assert model.utilization_at(p_min - 1) >= 1.0


class TestRateProfiles:
    @given(
        warm=st.floats(min_value=1.0, max_value=100.0),
        peak_mult=st.floats(min_value=1.5, max_value=20.0),
        steps=st.integers(min_value=1, max_value=10),
        duration=st.floats(min_value=1.0, max_value=60.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_phase_plan_symmetry(self, warm, peak_mult, steps, duration):
        """The plan starts and ends at the warm-up rate; peak is hit."""
        segments = step_phase_segments(warm, warm * peak_mult, steps, duration)
        profile = PiecewiseRate(segments)
        assert profile.rate(0.0) == pytest.approx(warm)
        assert profile.rate(profile.end_time + 1.0) == pytest.approx(warm)
        rates = [rate for _, rate in segments]
        assert max(rates) == pytest.approx(warm * peak_mult)

    @given(
        points=st.lists(
            st.floats(min_value=0.0, max_value=1000.0), min_size=2, max_size=20
        ),
        compression=st.floats(min_value=0.1, max_value=100.0),
        t=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_trace_interpolation_bounded(self, points, compression, t):
        trace = [(float(i), rate) for i, rate in enumerate(points)]
        profile = TraceRateProfile(trace, compression=compression)
        value = profile.rate(t)
        assert min(points) - 1e-9 <= value <= max(points) + 1e-9

    @given(
        rate0=st.floats(min_value=0.0, max_value=100.0),
        rate1=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_trace_midpoint_is_mean(self, rate0, rate1):
        profile = TraceRateProfile([(0.0, rate0), (2.0, rate1)])
        assert profile.rate(1.0) == pytest.approx((rate0 + rate1) / 2.0, abs=1e-9)


class TestEndToEndDeterminism:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=8, deadline=None)
    def test_identical_runs_for_identical_seeds(self, seed):
        from repro.engine.engine import EngineConfig, StreamProcessingEngine
        from conftest import make_linear_job

        def run_once():
            engine = StreamProcessingEngine(EngineConfig(seed=seed))
            job = engine.submit(make_linear_job(source_rate=150.0, service_cv=0.8,
                                          jitter="exponential"))
            engine.run(6.0)
            worker = job.runtime.vertex("Worker").tasks[0]
            return (engine.sim.fired_events, worker.items_processed, worker.busy_time)

        assert run_once() == run_once()
