"""Tests for trace tooling, the CLI, and placement strategies."""

import os
import random

import pytest

from repro.cli import build_parser, main
from repro.engine.resources import ResourceManager
from repro.simulation.kernel import Simulator
from repro.workloads.traces import (
    TraceRateProfile,
    generate_diurnal_trace,
    load_trace,
    save_trace,
)


class TestGenerateTrace:
    def test_length_and_resolution(self):
        trace = generate_diurnal_trace(days=2, resolution=3600.0)
        assert len(trace) == 48
        assert trace[1][0] - trace[0][0] == 3600.0

    def test_diurnal_swing(self):
        trace = generate_diurnal_trace(days=1, base_rate=1000.0, daily_amplitude=0.5, noise=0.0)
        rates = [r for _, r in trace]
        assert min(rates) == pytest.approx(500.0, rel=0.05)
        assert max(rates) == pytest.approx(1500.0, rel=0.05)

    def test_weekend_dip(self):
        trace = generate_diurnal_trace(
            days=7, weekend_factor=0.5, noise=0.0, resolution=43200.0
        )
        weekday_noon = trace[1][1]   # day 0, 12:00
        saturday_noon = trace[11][1]  # day 5, 12:00
        assert saturday_noon == pytest.approx(weekday_noon * 0.5, rel=0.01)

    def test_bursts_applied(self):
        trace = generate_diurnal_trace(
            days=1, noise=0.0, bursts=[(3600.0, 1800.0, 3.0)], resolution=1800.0
        )
        burst_rate = trace[2][1]  # t = 3600
        neighbour = trace[4][1]   # t = 7200 (same diurnal phase-ish)
        assert burst_rate > 2.0 * neighbour

    def test_deterministic_for_seed(self):
        a = generate_diurnal_trace(days=1, seed=9)
        b = generate_diurnal_trace(days=1, seed=9)
        assert a == b

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            generate_diurnal_trace(days=0)
        with pytest.raises(ValueError):
            generate_diurnal_trace(daily_amplitude=2.0)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = generate_diurnal_trace(days=1, resolution=7200.0)
        path = save_trace(os.path.join(tmp_path, "t.csv"), trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for (t0, r0), (t1, r1) in zip(trace, loaded):
            assert t0 == pytest.approx(t1, abs=1e-3)
            assert r0 == pytest.approx(r1, rel=1e-5)

    def test_bad_header_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as f:
            f.write("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "empty.csv")
        with open(path, "w") as f:
            f.write("time_s,rate_per_s\n")
        with pytest.raises(ValueError):
            load_trace(path)


class TestTraceRateProfile:
    def test_interpolation(self):
        profile = TraceRateProfile([(0.0, 100.0), (10.0, 200.0)])
        assert profile.rate(0.0) == 100.0
        assert profile.rate(5.0) == pytest.approx(150.0)
        assert profile.rate(10.0) == 200.0
        assert profile.rate(99.0) == 200.0

    def test_compression_maps_time(self):
        profile = TraceRateProfile([(0.0, 100.0), (100.0, 200.0)], compression=10.0)
        # experiment t=5 -> trace t=50 -> midway
        assert profile.rate(5.0) == pytest.approx(150.0)
        assert profile.replay_duration == pytest.approx(10.0)

    def test_rate_scale(self):
        profile = TraceRateProfile([(0.0, 100.0), (1.0, 100.0)], rate_scale=0.1)
        assert profile.rate(0.5) == pytest.approx(10.0)

    def test_drives_a_source(self):
        profile = TraceRateProfile([(0.0, 50.0), (10.0, 50.0)], jitter="deterministic")
        rng = random.Random(1)
        assert profile.next_interval(1.0, rng) == pytest.approx(0.02)

    def test_invalid_traces_rejected(self):
        with pytest.raises(ValueError):
            TraceRateProfile([])
        with pytest.raises(ValueError):
            TraceRateProfile([(0.0, 1.0), (0.0, 2.0)])
        with pytest.raises(ValueError):
            TraceRateProfile([(0.0, -1.0)])
        with pytest.raises(ValueError):
            TraceRateProfile([(0.0, 1.0)], compression=0.0)


class TestPlacement:
    class T:
        _uid = 100_000

        def __init__(self):
            TestPlacement.T._uid += 1
            self.uid = TestPlacement.T._uid
            self.task_id = f"t{self.uid}"

    def test_pack_fills_first_worker(self):
        rm = ResourceManager(Simulator(), pool_size=4, slots_per_worker=4, placement="pack")
        for _ in range(4):
            rm.allocate_slot(self.T())
        assert rm.leased_workers == 1

    def test_spread_leases_more_workers(self):
        rm = ResourceManager(Simulator(), pool_size=4, slots_per_worker=4, placement="spread")
        for _ in range(4):
            rm.allocate_slot(self.T())
        assert rm.leased_workers >= 2

    def test_spread_respects_pool_bound(self):
        rm = ResourceManager(Simulator(), pool_size=2, slots_per_worker=2, placement="spread")
        for _ in range(4):
            rm.allocate_slot(self.T())
        assert rm.leased_workers == 2

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            ResourceManager(Simulator(), placement="bogus")


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig5"])
        assert args.name == "fig5"

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ICDCS 2015" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "experiment" in capsys.readouterr().out

    def test_bare_trace_shows_its_help_and_fails_like_bare_repro(self, capsys):
        assert main(["trace"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("usage: repro trace") and "generate" in out

    def test_trace_generate_and_info(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "trace.csv")
        assert main(["trace", "generate", "--days", "1", "--out", path]) == 0
        assert os.path.exists(path)
        assert main(["trace", "info", path]) == 0
        out = capsys.readouterr().out
        assert "1.0 days" in out

    def test_experiment_fig5_runs(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Rebalance chose" in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--grid", "missing.json", "--out", "out"], "cannot build the sweep grid"),
        (["sweep", "--seeds", "x", "--out", "out"], "cannot build the sweep grid"),
        (["sweep", "--workloads", "nope", "--out", "out"], "cannot build the sweep grid"),
        (["trace", "info", "empty.csv"], "cannot read trace"),
        (["trace", "info", "missing.csv"], "cannot read trace"),
        (["trace", "generate", "--days", "0", "--out", "out"], "cannot generate a trace"),
    ], ids=["sweep-missing-grid", "sweep-bad-seeds", "sweep-unknown-workload",
            "trace-info-empty", "trace-info-missing", "trace-generate-zero-days"])
    def test_bad_input_is_a_one_line_usage_error(self, argv, message, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.csv").write_text("")
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith(message) and out.count("\n") == 1
        assert not (tmp_path / "out").exists()
