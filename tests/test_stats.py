"""Unit and property tests for the streaming statistics primitives."""

import math
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qos.stats import OnlineStats, StatsSnapshot, WindowedStats, percentile

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestOnlineStats:
    def test_empty(self):
        s = OnlineStats()
        assert s.count == 0
        assert s.mean == 0.0
        assert s.variance == 0.0
        assert s.cv == 0.0

    def test_single_value(self):
        s = OnlineStats()
        s.add(4.2)
        assert s.mean == 4.2
        assert s.variance == 0.0
        assert s.min == 4.2
        assert s.max == 4.2

    def test_mean_and_variance_match_reference(self):
        values = [1.5, 2.5, 0.5, 4.0, 3.0, 2.0]
        s = OnlineStats()
        for v in values:
            s.add(v)
        assert s.mean == pytest.approx(statistics.mean(values))
        assert s.variance == pytest.approx(statistics.variance(values))

    def test_cv_definition(self):
        s = OnlineStats()
        for v in (1.0, 2.0, 3.0):
            s.add(v)
        assert s.cv == pytest.approx(statistics.stdev([1.0, 2.0, 3.0]) / 2.0)

    def test_min_max(self):
        s = OnlineStats()
        for v in (3.0, -1.0, 7.0):
            s.add(v)
        assert (s.min, s.max) == (-1.0, 7.0)

    def test_reset(self):
        s = OnlineStats()
        s.add(1.0)
        s.reset()
        assert s.count == 0
        assert s.mean == 0.0

    def test_snapshot_and_reset(self):
        s = OnlineStats()
        for v in (2.0, 4.0):
            s.add(v)
        snap = s.snapshot_and_reset()
        assert snap.count == 2
        assert snap.mean == 3.0
        assert s.count == 0

    def test_zero_mean_cv(self):
        s = OnlineStats()
        s.add(-1.0)
        s.add(1.0)
        assert s.mean == 0.0
        assert s.cv == 0.0

    @given(st.lists(finite_floats, min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_matches_statistics_module(self, values):
        s = OnlineStats()
        for v in values:
            s.add(v)
        assert s.mean == pytest.approx(statistics.mean(values), rel=1e-6, abs=1e-6)
        assert s.variance == pytest.approx(
            statistics.variance(values), rel=1e-6, abs=1e-4
        )


class TestWindowedStats:
    def push_values(self, w, groups):
        for group in groups:
            s = OnlineStats()
            for v in group:
                s.add(v)
            w.push(s.snapshot_and_reset())

    def test_empty(self):
        w = WindowedStats(3)
        assert not w.has_data
        assert w.mean == 0.0
        assert w.cv == 0.0

    def test_mean_is_mean_of_interval_means(self):
        w = WindowedStats(3)
        self.push_values(w, [[1.0, 3.0], [5.0]])
        # interval means: 2.0 and 5.0 -> 3.5 (paper Eq. 2 averaging)
        assert w.mean == pytest.approx(3.5)

    def test_weighted_mean(self):
        w = WindowedStats(3)
        self.push_values(w, [[1.0, 3.0], [5.0]])
        assert w.weighted_mean == pytest.approx((1.0 + 3.0 + 5.0) / 3)

    def test_window_evicts_oldest(self):
        w = WindowedStats(2)
        self.push_values(w, [[1.0], [2.0], [3.0]])
        assert w.mean == pytest.approx(2.5)

    def test_empty_snapshots_skipped(self):
        w = WindowedStats(3)
        w.push(StatsSnapshot(0, 0.0, 0.0))
        assert not w.has_data

    def test_pooled_variance_matches_reference(self):
        groups = [[1.0, 2.0, 3.0], [10.0, 11.0], [5.0]]
        w = WindowedStats(5)
        self.push_values(w, groups)
        flat = [v for group in groups for v in group]
        assert w.variance == pytest.approx(statistics.variance(flat), rel=1e-9)
        assert w.cv == pytest.approx(
            statistics.stdev(flat) / statistics.mean(flat), rel=1e-9
        )

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WindowedStats(0)

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.001, max_value=1e3), min_size=1, max_size=10),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pooled_variance_property(self, groups):
        w = WindowedStats(10)
        self.push_values(w, groups)
        flat = [v for group in groups for v in group]
        if len(flat) >= 2:
            assert w.variance == pytest.approx(
                statistics.variance(flat), rel=1e-6, abs=1e-9
            )


class TestPercentile:
    def test_empty_returns_none(self):
        assert percentile([], 95) is None

    def test_single_value(self):
        assert percentile([3.0], 95) == 3.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 5.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_unsorted_input_handled(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_min_max(self, values):
        p95 = percentile(values, 95)
        assert min(values) <= p95 <= max(values)
