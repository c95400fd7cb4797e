"""Unit tests for the analytic queueing module + DES-vs-theory validation.

The last test class is load-bearing for the whole reproduction: it runs
the discrete-event engine in configurations with known closed forms
(M/M/1, M/D/1) and checks the *measured* queue waits against theory.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pipeline import PipelineStage, predict_pipeline_latency
from repro.analysis.queueing import (
    INFINITY,
    allen_cunneen_waiting_time,
    erlang_c,
    md1_waiting_time,
    mg1_waiting_time,
    mm1_queue_length,
    mm1_waiting_time,
    mmc_waiting_time,
)


class TestMM1:
    def test_known_value(self):
        # lambda = 80/s, S = 10 ms -> rho = 0.8, Wq = 0.8/(100-80) = 40 ms
        assert mm1_waiting_time(80.0, 0.010) == pytest.approx(0.040)

    def test_zero_load(self):
        assert mm1_waiting_time(0.0, 0.01) == 0.0

    def test_saturated(self):
        assert mm1_waiting_time(100.0, 0.01) == INFINITY

    def test_queue_length_littles_law(self):
        lam, s = 50.0, 0.01
        wq = mm1_waiting_time(lam, s)
        assert mm1_queue_length(lam, s) == pytest.approx(lam * wq)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mm1_waiting_time(-1.0, 0.01)


class TestMG1:
    def test_md1_is_half_mm1(self):
        assert md1_waiting_time(50.0, 0.01) == pytest.approx(
            mm1_waiting_time(50.0, 0.01) / 2.0
        )

    def test_pk_reduces_to_mm1_for_cv_one(self):
        assert mg1_waiting_time(50.0, 0.01, 1.0) == pytest.approx(
            mm1_waiting_time(50.0, 0.01)
        )

    def test_pk_reduces_to_md1_for_cv_zero(self):
        assert mg1_waiting_time(50.0, 0.01, 0.0) == pytest.approx(
            md1_waiting_time(50.0, 0.01)
        )

    def test_higher_cv_longer_wait(self):
        low = mg1_waiting_time(50.0, 0.01, 0.5)
        high = mg1_waiting_time(50.0, 0.01, 2.0)
        assert high > low

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            mg1_waiting_time(50.0, 0.01, -0.1)


class TestErlangC:
    def test_single_server_reduces_to_rho(self):
        # For M/M/1, P(wait) = rho.
        assert erlang_c(1, 0.7) == pytest.approx(0.7)

    def test_saturated_always_waits(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 5.0) == 1.0

    def test_zero_load_never_waits(self):
        assert erlang_c(8, 0.0) == 0.0

    def test_known_value(self):
        # Classic Erlang C table: c = 2, a = 1 -> P(wait) = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_more_servers_less_waiting(self):
        values = [erlang_c(c, 3.5) for c in (4, 6, 8, 12)]
        assert values == sorted(values, reverse=True)

    @given(
        c=st.integers(min_value=1, max_value=50),
        load_fraction=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_probability_bounds(self, c, load_fraction):
        p = erlang_c(c, c * load_fraction)
        assert 0.0 <= p <= 1.0


class TestMMC:
    def test_single_server_matches_mm1(self):
        assert mmc_waiting_time(50.0, 0.01, 1) == pytest.approx(
            mm1_waiting_time(50.0, 0.01)
        )

    def test_saturated(self):
        assert mmc_waiting_time(400.0, 0.01, 4) == INFINITY

    def test_pooling_beats_split_queues(self):
        # One shared c=2 queue waits less than two independent M/M/1s.
        shared = mmc_waiting_time(160.0, 0.01, 2)
        split = mm1_waiting_time(80.0, 0.01)
        assert shared < split


class TestAllenCunneen:
    def test_reduces_to_mmc_for_unit_cv(self):
        assert allen_cunneen_waiting_time(50.0, 0.01, 2, 1.0, 1.0) == pytest.approx(
            mmc_waiting_time(50.0, 0.01, 2)
        )

    def test_variability_scaling(self):
        base = allen_cunneen_waiting_time(50.0, 0.01, 2, 1.0, 1.0)
        halved = allen_cunneen_waiting_time(50.0, 0.01, 2, 1.0, 0.0)
        assert halved == pytest.approx(base / 2.0)

    def test_invalid_servers(self):
        with pytest.raises(ValueError):
            allen_cunneen_waiting_time(50.0, 0.01, 0)


class TestPipelinePrediction:
    def stages(self):
        return [
            PipelineStage("a", 0.002, service_cv=1.0, parallelism=2),
            PipelineStage("b", 0.005, service_cv=0.5, parallelism=4, selectivity=0.5),
            PipelineStage("c", 0.001, service_cv=1.0, parallelism=1),
        ]

    def test_prediction_positive_and_finite(self):
        latency = predict_pipeline_latency(self.stages(), input_rate=200.0)
        assert latency is not None
        assert latency > 0.002 + 0.005 + 0.001

    def test_saturated_returns_none(self):
        assert predict_pipeline_latency(self.stages(), input_rate=5000.0) is None

    def test_selectivity_reduces_downstream_load(self):
        stages = self.stages()
        # stage c sees half the rate; at 700/s it survives only thanks to
        # stage b's 0.5 selectivity (c capacity = 1000/s).
        latency = predict_pipeline_latency(stages, input_rate=700.0)
        assert latency is not None

    def test_latency_grows_with_rate(self):
        low = predict_pipeline_latency(self.stages(), 100.0)
        high = predict_pipeline_latency(self.stages(), 700.0)
        assert high > low

    def test_hop_costs_added(self):
        bare = predict_pipeline_latency(self.stages(), 100.0, hop_latency=0.0)
        hops = predict_pipeline_latency(self.stages(), 100.0, hop_latency=0.001)
        assert hops == pytest.approx(bare + 3 * 0.001)

    def test_invalid_stage_params(self):
        with pytest.raises(ValueError):
            PipelineStage("x", -0.001)
        with pytest.raises(ValueError):
            PipelineStage("x", 0.001, parallelism=0)


class TestEngineMatchesTheory:
    """Validate the DES against closed-form queueing results."""

    def run_station(self, rate, service_mean, service_cv, jitter, duration=120.0):
        """Ground-truth mean queue wait from per-item end-to-end samples.

        e2e = queue wait + service (network, batching and sink cost are
        zeroed), so the item-weighted mean wait is ``mean(e2e) - E[S]``.
        Note the engine's own summaries use the paper's Eq. 2 interval
        averaging, which deliberately underweights bursty intervals — for
        comparing against closed forms we need the per-item mean.
        """
        from repro.engine.engine import EngineConfig, StreamProcessingEngine
        from conftest import make_linear_job

        config = EngineConfig(
            base_latency=0.0,
            per_batch_overhead=0.0,
            per_item_overhead=0.0,
            queue_capacity=100_000,
            channel_capacity=100_000,
            seed=3,
        )
        engine = StreamProcessingEngine(config)
        graph = make_linear_job(
            source_rate=rate,
            service_mean=service_mean,
            service_cv=service_cv,
            n_workers=1,
            n_sinks=1,
            jitter=jitter,
        )
        graph.vertex("Sink").udf_factory = lambda: __import__(
            "repro.engine.udf", fromlist=["SinkUDF"]
        ).SinkUDF()
        job = engine.submit(graph)
        engine.run(duration)
        samples = [latency for _, latency in job.drain_sink_samples("Sink")]
        assert len(samples) > 1000
        return sum(samples) / len(samples) - service_mean

    def test_mm1_wait_matches(self):
        # M/M/1: Poisson arrivals, exponential-ish service via Gamma cv=1.
        measured = self.run_station(70.0, 0.010, 1.0, jitter="exponential")
        expected = mm1_waiting_time(70.0, 0.010)
        assert measured == pytest.approx(expected, rel=0.30)

    def test_md1_wait_matches(self):
        measured = self.run_station(70.0, 0.010, 0.0, jitter="exponential")
        expected = md1_waiting_time(70.0, 0.010)
        assert measured == pytest.approx(expected, rel=0.30)

    def test_dd1_has_no_queueing(self):
        measured = self.run_station(50.0, 0.010, 0.0, jitter="deterministic")
        assert measured < 0.001

    def test_super_linear_growth_with_load(self):
        """The paper's Sec. III-C observation, reproduced by the engine."""
        waits = [
            self.run_station(rate, 0.010, 1.0, jitter="exponential")
            for rate in (50.0, 80.0, 95.0)
        ]
        assert waits[0] < waits[1] < waits[2]
        # super-linear: going 80 -> 95 (+19 % load) must grow the wait
        # far more than 50 -> 80 (+60 % load) per unit of added load
        assert (waits[2] - waits[1]) > (waits[1] - waits[0])
