"""The first-class ScalingPolicy API: protocol, registry, specs, and the
DRS / Daedalus tournament contenders."""

import warnings

import pytest

from repro.core.constraints import LatencyConstraint
from repro.core.daedalus import DaedalusPolicy
from repro.core.drs import DrsPolicy
from repro.core.policies import CpuThresholdPolicy, RateBasedPolicy
from repro.core.policy import (
    DEFAULT_POLICY,
    PolicyContext,
    PolicyRoundContext,
    PolicySpec,
    ScalingPolicy,
    canonical_policy_name,
    conformance_errors,
    create_policy,
    parse_policy_spec,
    registered_policies,
)
from repro.core.scale_reactively import ScalingDecision
from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.qos.summary import EdgeSummary, GlobalSummary, VertexSummary


def make_graph(worker_max=32, worker_min=1):
    graph = JobGraph("g")
    src = graph.add_vertex("Src", lambda: SourceUDF(lambda n, r: 0))
    worker = graph.add_vertex(
        "Worker", lambda: MapUDF(lambda x: x),
        parallelism=4, min_parallelism=worker_min, max_parallelism=worker_max,
    )
    sink = graph.add_vertex("Snk", lambda: SinkUDF())
    graph.connect(src, worker)
    graph.connect(worker, sink)
    return graph


def make_constraint(graph, bound=0.030):
    js = JobSequence.from_names(
        graph, ["Worker"], leading_edge=True, trailing_edge=True
    )
    return LatencyConstraint(js, bound, name="e2e")


def make_context(graph=None, bound=0.030):
    graph = graph or make_graph()
    return PolicyContext(
        constraints=[make_constraint(graph, bound)],
        vertices=[v for v in graph.vertices.values() if v.elastic],
    )


def summary_with(service=0.004, interarrival=0.02, latency=0.004,
                 staleness=0.0, cv=1.0):
    s = GlobalSummary(0.0)
    s.vertices["Worker"] = VertexSummary(
        "Worker", latency, service, cv, interarrival, cv, 4,
        staleness=staleness,
    )
    s.edges["Src->Worker"] = EdgeSummary("Src->Worker", 0.003, 0.001, 4)
    s.edges["Worker->Snk"] = EdgeSummary("Worker->Snk", 0.002, 0.001, 4)
    return s


# ----------------------------------------------------------------------
# registry round-trip: every registered policy constructs and conforms
# ----------------------------------------------------------------------


class TestRegistry:
    def test_registry_enumerates_all_shipped_policies(self):
        names = registered_policies()
        for expected in ("scale-reactively", "cpu-threshold", "rate",
                         "drs", "daedalus", "predictive", "static"):
            assert expected in names
        assert names == tuple(sorted(names))
        assert DEFAULT_POLICY in names

    @pytest.mark.parametrize("name", registered_policies())
    def test_every_registered_name_constructs_and_conforms(self, name):
        policy = create_policy(name, make_context())
        assert conformance_errors(policy) == []
        assert isinstance(policy, ScalingPolicy)
        assert policy.name == name
        decision = policy.decide(summary_with(), {"Worker": 4})
        assert isinstance(decision, ScalingDecision)

    @pytest.mark.parametrize("name", registered_policies())
    def test_decisions_are_deterministic_per_name(self, name):
        summary = summary_with(service=0.017)
        a = create_policy(name, make_context()).decide(summary, {"Worker": 4})
        b = create_policy(name, make_context()).decide(summary, {"Worker": 4})
        assert a.parallelism == b.parallelism
        assert a.skipped_constraints == b.skipped_constraints

    def test_alias_resolves_to_canonical_name(self):
        assert canonical_policy_name("rate-based") == "rate"

    def test_unknown_name_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown scaling policy"):
            canonical_policy_name("does-not-exist")

    def test_knobs_flow_through_the_factory(self):
        policy = create_policy("drs", make_context(), target_fraction=0.5)
        assert policy.knobs()["target_fraction"] == 0.5

    def test_conformance_errors_name_the_gaps(self):
        class Bogus:
            pass

        errors = conformance_errors(Bogus())
        assert any("name" in e for e in errors)
        assert any("decide" in e for e in errors)
        assert any("knobs" in e for e in errors)
        assert not isinstance(Bogus(), ScalingPolicy)


# ----------------------------------------------------------------------
# PolicySpec: the shared NAME[:key=val,...] syntax
# ----------------------------------------------------------------------


class TestPolicySpec:
    def test_parse_canonical_round_trip(self):
        spec = parse_policy_spec("drs:target_fraction=0.9,staleness_threshold=none")
        assert spec.name == "drs"
        assert spec.knobs == {"target_fraction": 0.9, "staleness_threshold": None}
        assert parse_policy_spec(spec.canonical()) == spec

    def test_knob_values_are_typed(self):
        spec = parse_policy_spec(
            "daedalus:stabilization_rounds=3,tolerance=0.2,smoothing=1"
        )
        assert spec.knobs["stabilization_rounds"] == 3
        assert isinstance(spec.knobs["stabilization_rounds"], int)
        assert spec.knobs["tolerance"] == 0.2

    def test_key_token_is_filesystem_safe_and_knob_sensitive(self):
        bare = parse_policy_spec("drs")
        knobbed = parse_policy_spec("drs:target_fraction=0.9")
        assert bare.key_token == "drs"
        assert knobbed.key_token.startswith("drs+")
        assert bare.key_token != knobbed.key_token
        for forbidden in "/=,: ":
            assert forbidden not in knobbed.key_token

    def test_alias_spec_canonicalizes(self):
        assert parse_policy_spec("rate-based").canonical() == "rate"

    def test_malformed_knob_rejected(self):
        with pytest.raises(ValueError, match="malformed policy knob"):
            parse_policy_spec("drs:target_fraction")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scaling policy"):
            parse_policy_spec("nope:x=1")

    def test_spec_builds_a_conforming_policy(self):
        policy = parse_policy_spec("cpu-threshold:high=0.9,low=0.2,target=0.5").build(
            make_context()
        )
        assert conformance_errors(policy) == []
        assert policy.high == 0.9


# ----------------------------------------------------------------------
# DRS: Jackson-network minimum-parallelism provisioning
# ----------------------------------------------------------------------


class TestDrsPolicy:
    def policy(self, graph=None, bound=0.030, **kwargs):
        graph = graph or make_graph()
        return DrsPolicy([make_constraint(graph, bound)], **kwargs)

    def test_scales_out_to_meet_the_bound(self):
        policy = self.policy()
        # Λ = 4 tasks * 50/s = 200/s, S̄ = 17 ms -> needs ≥ 4 servers for
        # stability and more to pull the M/M/c wait under 0.8 * 30 ms
        decision = policy.decide(summary_with(service=0.017), {"Worker": 4})
        assert decision.parallelism["Worker"] > 4
        assert not decision.infeasible_constraints

    def test_releases_overprovisioned_servers(self):
        policy = self.policy()
        # nearly idle: Λ·S̄ = 200 * 0.0005 = 0.1 -> the floor (1) suffices
        decision = policy.decide(summary_with(service=0.0005), {"Worker": 16})
        assert decision.parallelism["Worker"] < 16

    def test_allocation_meets_the_modeled_budget(self):
        policy = self.policy()
        summary = summary_with(service=0.017)
        decision = policy.decide(summary, {"Worker": 4})
        from repro.analysis.queueing import mmc_waiting_time

        p = decision.parallelism["Worker"]
        sojourn = mmc_waiting_time(200.0, 0.017, p) + 0.017
        assert sojourn <= policy.target_fraction * 0.030

    def test_infeasible_when_p_max_is_too_small(self):
        graph = make_graph(worker_max=4)
        policy = self.policy(graph=graph, bound=0.001)
        # budget 0.8 ms < the 17 ms service time: no allocation can fit
        decision = policy.decide(summary_with(service=0.017), {"Worker": 4})
        assert decision.infeasible_constraints == ["e2e"]
        assert decision.parallelism["Worker"] == 4  # pinned at p_max

    def test_stale_measurements_are_skipped(self):
        policy = self.policy(staleness_threshold=5.0)
        decision = policy.decide(
            summary_with(service=0.017, staleness=6.0), {"Worker": 4}
        )
        assert not decision.has_actions
        assert decision.stale_constraints == ["e2e"]

    def test_unmeasured_constraint_is_skipped(self):
        policy = self.policy()
        decision = policy.decide(GlobalSummary(0.0), {"Worker": 4})
        assert not decision.has_actions
        assert decision.skipped_constraints == ["e2e"]

    def test_invalid_parameters_rejected(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            self.policy(graph=graph, target_fraction=0.0)
        with pytest.raises(ValueError):
            self.policy(graph=graph, target_fraction=1.5)
        with pytest.raises(ValueError):
            self.policy(graph=graph, staleness_threshold=-1.0)


# ----------------------------------------------------------------------
# Daedalus: self-adaptive target-utilization sizing
# ----------------------------------------------------------------------


class TestDaedalusPolicy:
    def policy(self, graph=None, **kwargs):
        graph = graph or make_graph()
        kwargs.setdefault("smoothing", 1.0)  # no EWMA lag unless testing it
        return DaedalusPolicy([graph.vertex("Worker")], **kwargs)

    def test_scales_up_to_the_utilization_target(self):
        policy = self.policy(target_utilization=0.7)
        # busy mass = 200/s * 17 ms = 3.4 -> ceil(3.4 / 0.7) = 5
        decision = policy.decide(summary_with(service=0.017), {"Worker": 4})
        assert decision.parallelism["Worker"] == 5

    def test_hysteresis_band_suppresses_marginal_scale_down(self):
        policy = self.policy(target_utilization=0.7, tolerance=0.3)
        # busy 2.0 -> required ceil(2/0.7)=3 at p=4: within 30% band, hold
        decision = policy.decide(summary_with(service=0.010), {"Worker": 4})
        assert not decision.has_actions

    def test_clear_scale_down_passes_the_band(self):
        policy = self.policy(target_utilization=0.7, tolerance=0.15)
        # busy 0.2 -> required 1 at p=8: far below the band, shrink
        decision = policy.decide(summary_with(service=0.001), {"Worker": 8})
        assert decision.parallelism["Worker"] == 1

    def test_zero_rate_vertex_settles_at_min_parallelism(self):
        graph = make_graph(worker_min=2)
        policy = self.policy(graph=graph)
        # interarrival 0 means "no arrivals" -> arrival_rate 0 -> min p
        decision = policy.decide(
            summary_with(service=0.004, interarrival=0.0), {"Worker": 6}
        )
        assert decision.parallelism["Worker"] == 2

    def test_ewma_smooths_the_profile(self):
        policy = self.policy(smoothing=0.5, target_utilization=0.7, tolerance=0.0)
        busy_summary = summary_with(service=0.017)  # busy 3.4
        idle_summary = summary_with(service=0.001)  # busy 0.2
        policy.decide(busy_summary, {"Worker": 4})
        # one idle observation only halves the profile: 1.8 -> ceil(2.57)=3
        decision = policy.decide(idle_summary, {"Worker": 4})
        assert decision.parallelism["Worker"] == 3

    def test_observe_hook_holds_scale_downs_after_actions(self):
        policy = self.policy(stabilization_rounds=2, tolerance=0.0)
        summary_up = summary_with(service=0.017)
        summary_idle = summary_with(service=0.001)
        up = policy.decide(summary_up, {"Worker": 4})
        assert up.parallelism["Worker"] == 5
        policy.observe(PolicyRoundContext(10.0, summary_up, up, {"Worker": 1}))
        # within the stabilization window: the scale-down is held
        held = policy.decide(summary_idle, {"Worker": 5})
        assert not held.has_actions
        # two quiet rounds later the hold expires
        for t in (20.0, 30.0):
            policy.observe(
                PolicyRoundContext(t, summary_idle, ScalingDecision(), {})
            )
        released = policy.decide(summary_idle, {"Worker": 5})
        assert released.parallelism["Worker"] == 1

    def test_scale_ups_are_never_held(self):
        policy = self.policy(stabilization_rounds=3)
        summary_up = summary_with(service=0.017)
        first = policy.decide(summary_up, {"Worker": 4})
        policy.observe(PolicyRoundContext(10.0, summary_up, first, {"Worker": 1}))
        # busy = 50/s * 5 tasks * 30 ms = 7.5 -> ceil(7.5/0.7) = 11
        hotter = summary_with(service=0.030)
        decision = policy.decide(hotter, {"Worker": 5})
        assert decision.parallelism["Worker"] == 11

    def test_stale_measurements_are_skipped(self):
        policy = self.policy(staleness_threshold=5.0)
        decision = policy.decide(
            summary_with(service=0.017, staleness=6.0), {"Worker": 4}
        )
        assert not decision.has_actions
        assert decision.stale_constraints == ["Worker"]

    def test_invalid_parameters_rejected(self):
        graph = make_graph()
        for kwargs in (
            {"target_utilization": 0.0},
            {"target_utilization": 1.5},
            {"tolerance": 1.0},
            {"smoothing": 0.0},
            {"stabilization_rounds": -1},
            {"staleness_threshold": 0.0},
        ):
            with pytest.raises(ValueError):
                self.policy(graph=graph, **kwargs)


# ----------------------------------------------------------------------
# baseline-policy edge cases (satellite): zero rates, staleness, floors
# ----------------------------------------------------------------------


class TestBaselinePolicyEdgeCases:
    def test_cpu_threshold_skips_stale_summaries_when_gated(self):
        graph = make_graph()
        policy = CpuThresholdPolicy(
            [graph.vertex("Worker")], staleness_threshold=5.0
        )
        decision = policy.decide(
            summary_with(service=0.017, staleness=6.0), {"Worker": 4}
        )
        assert not decision.has_actions
        assert decision.stale_constraints == ["Worker"]

    def test_cpu_threshold_acts_on_stale_data_without_the_gate(self):
        graph = make_graph()
        policy = CpuThresholdPolicy([graph.vertex("Worker")])
        decision = policy.decide(
            summary_with(service=0.017, staleness=60.0), {"Worker": 4}
        )
        assert decision.has_actions  # historical behavior preserved

    def test_cpu_threshold_zero_rate_hits_the_single_replica_floor(self):
        graph = make_graph()
        policy = CpuThresholdPolicy([graph.vertex("Worker")])
        # zero arrivals -> rho 0 <= low -> busy 0 -> desired max(1, 0) = 1
        decision = policy.decide(
            summary_with(service=0.004, interarrival=0.0), {"Worker": 4}
        )
        assert decision.parallelism["Worker"] == 1

    def test_rate_based_zero_rate_hits_the_single_replica_floor(self):
        graph = make_graph()
        policy = RateBasedPolicy([graph.vertex("Worker")])
        decision = policy.decide(
            summary_with(service=0.004, interarrival=0.0), {"Worker": 4}
        )
        assert decision.parallelism["Worker"] == 1

    def test_rate_based_floor_respects_min_parallelism(self):
        graph = make_graph(worker_min=3)
        policy = RateBasedPolicy([graph.vertex("Worker")])
        decision = policy.decide(
            summary_with(service=0.004, interarrival=0.0), {"Worker": 4}
        )
        assert decision.parallelism["Worker"] == 3

    def test_rate_based_skips_stale_summaries_when_gated(self):
        graph = make_graph()
        policy = RateBasedPolicy([graph.vertex("Worker")], staleness_threshold=5.0)
        decision = policy.decide(
            summary_with(service=0.017, staleness=6.0), {"Worker": 4}
        )
        assert not decision.has_actions
        assert decision.stale_constraints == ["Worker"]

    def test_staleness_threshold_validation(self):
        graph = make_graph()
        with pytest.raises(ValueError):
            CpuThresholdPolicy([graph.vertex("Worker")], staleness_threshold=0.0)
        with pytest.raises(ValueError):
            RateBasedPolicy([graph.vertex("Worker")], staleness_threshold=-1.0)


# ----------------------------------------------------------------------
# engine integration: policies by name, no special-casing
# ----------------------------------------------------------------------


def build_pipeline(policy=None, **scale_knobs):
    from repro.builder import PipelineBuilder
    from repro.simulation.randomness import Gamma
    from repro.workloads.rates import ConstantRate

    builder = (
        PipelineBuilder("p")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(200.0))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7),
             parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030, name="e2e")
    )
    if policy is not None:
        builder.scale(policy, **scale_knobs)
    return builder.build()


class TestEngineIntegration:
    def engine(self, **config_kwargs):
        from repro.engine.engine import EngineConfig, StreamProcessingEngine

        return StreamProcessingEngine(
            EngineConfig(elastic=True, seed=1, **config_kwargs)
        )

    @pytest.mark.parametrize("name", ["drs", "daedalus", "cpu-threshold"])
    def test_builder_scale_selects_the_policy_by_name(self, name):
        engine = self.engine()
        job = engine.submit(build_pipeline(policy=name))
        assert job.scaler is not None
        assert job.scaler.policy_name == name
        assert job.policy_spec.canonical() == name
        engine.run(5.0)  # the scaler round-trips through the policy

    def test_builder_scale_knobs_reach_the_policy(self):
        engine = self.engine()
        job = engine.submit(
            build_pipeline(policy="drs:target_fraction=0.9", target_fraction=0.5)
        )
        # explicit kwargs win over spec-string knobs
        assert job.scaler.policy.target_fraction == 0.5

    def test_builder_scale_rejects_unknown_policy(self):
        from repro.builder import PipelineBuilder

        with pytest.raises(ValueError, match="unknown scaling policy"):
            PipelineBuilder("p").scale("not-a-policy")

    def test_default_path_still_runs_the_papers_policy(self):
        engine = self.engine()
        job = engine.submit(build_pipeline())
        assert job.scaler.policy_name == "scale-reactively"

    def test_job_policy_implies_elasticity(self):
        from repro.engine.engine import EngineConfig, StreamProcessingEngine

        engine = StreamProcessingEngine(EngineConfig(elastic=False, seed=1))
        job = engine.submit(build_pipeline(policy="daedalus"))
        assert job.scaler is not None

    def test_manifest_records_policy_provenance(self):
        import json
        import os
        import tempfile

        from repro.builder import PipelineBuilder
        from repro.simulation.randomness import Gamma
        from repro.workloads.rates import ConstantRate

        with tempfile.TemporaryDirectory() as tmp:
            pipeline = (
                PipelineBuilder("p")
                .source(lambda now, rng: rng.random(), rate=ConstantRate(200.0))
                .map("worker", lambda x: x, service=Gamma(0.004, 0.7),
                     parallelism=(4, 1, 32))
                .sink()
                .constrain(bound=0.030, name="e2e")
                .scale("drs:target_fraction=0.9")
                .observe(export_dir=tmp)
                .build()
            )
            engine = self.engine()
            engine.submit(pipeline)
            engine.run(5.0)
            engine.export_run()
            with open(os.path.join(tmp, "manifest.json")) as handle:
                manifest = json.load(handle)
        scaling = manifest["scaling"]
        assert scaling["policy"] == "drs"
        assert scaling["policy_spec"] == "drs:target_fraction=0.9"
        assert scaling["policy_knobs"]["target_fraction"] == 0.9


class TestSubmitToDeprecation:
    def test_engine_submit_does_not_warn(self):
        from repro.engine.engine import EngineConfig, StreamProcessingEngine

        pipeline = build_pipeline()
        engine = StreamProcessingEngine(EngineConfig(elastic=True, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.submit(pipeline)


# ----------------------------------------------------------------------
# tournament plumbing: grid axis, CLI spec parser, scoreboard
# ----------------------------------------------------------------------


class TestPolicyAxis:
    def test_grid_carries_and_expands_the_policy_axis(self):
        from repro.sweep import SweepGrid

        grid = SweepGrid(
            seeds=(1, 2), policies=("daedalus", "drs"), duration=4.0
        )
        assert len(grid) == 4
        shards = grid.expand()
        assert sorted({s.policy for s in shards}) == ["daedalus", "drs"]
        assert all(s.key.count(s.policy) == 1 for s in shards)

    def test_grid_dedupes_alias_spellings(self):
        from repro.sweep import SweepGrid

        grid = SweepGrid(policies=("rate", "rate-based"))
        assert grid.policies == ("rate",)

    def test_grid_round_trips_through_describe(self):
        from repro.sweep import SweepGrid

        grid = SweepGrid.tournament()
        clone = SweepGrid.from_dict(grid.describe())
        assert clone.policies == grid.policies
        assert len(clone) == len(grid)

    def test_tournament_grid_races_at_least_four_policies(self):
        from repro.sweep import SweepGrid

        grid = SweepGrid.tournament()
        assert len(grid.policies) >= 4
        for required in ("scale-reactively", "cpu-threshold", "drs", "daedalus"):
            assert required in grid.policies

    def test_cli_policy_spec_type_rejects_unknown_names(self):
        import argparse

        from repro.cli import _policy_spec

        assert _policy_spec("drs:target_fraction=0.9") == "drs:target_fraction=0.9"
        with pytest.raises(argparse.ArgumentTypeError):
            _policy_spec("not-a-policy")


def fake_shard(policy, key, violations, intervals, task_seconds,
               reaction=None, parallelism=4):
    return {
        "key": key,
        "params": {"policy": policy},
        "constraints": [{
            "name": "e2e",
            "violations": violations,
            "intervals": intervals,
            "fulfillment_ratio": 1.0 - violations / intervals,
        }],
        "series": {"task_seconds": task_seconds},
        "scaling": {"policy": policy, "reaction_time_s": reaction},
        "final_parallelism": {"worker": parallelism},
    }


class TestScoreboard:
    def aggregate(self):
        return {
            "grid": {"name": "t"},
            "shards": [
                fake_shard("drs", "a-drs-s0001", 1, 10, 360.0, reaction=2.0),
                fake_shard("drs", "a-drs-s0002", 3, 10, 360.0, reaction=4.0),
                fake_shard("daedalus", "a-dae-s0001", 5, 10, 180.0),
                fake_shard("daedalus", "a-dae-s0002", 5, 10, 180.0),
            ],
        }

    def test_build_groups_and_averages_per_policy(self):
        from repro.evaluate import build_scoreboard

        board = build_scoreboard(self.aggregate())
        assert board["shards"] == 4
        assert list(board["policies"]) == ["daedalus", "drs"]
        drs = board["policies"]["drs"]
        assert drs["violation_rate"] == pytest.approx(0.2)
        assert drs["task_hours"] == pytest.approx(0.1)
        assert drs["reaction_time_s"] == pytest.approx(3.0)
        # daedalus had no violation onsets -> reaction stays None
        assert board["policies"]["daedalus"]["reaction_time_s"] is None

    def test_render_marks_per_column_winners(self):
        from repro.evaluate import build_scoreboard, render_scoreboard

        table = render_scoreboard(build_scoreboard(self.aggregate()))
        lines = table.splitlines()
        drs_line = next(l for l in lines if l.startswith("drs"))
        dae_line = next(l for l in lines if l.startswith("daedalus"))
        assert "0.2000*" in drs_line  # best violation rate
        assert "0.0500*" in dae_line  # best task hours
        assert "best per column" in table

    def test_empty_aggregate_is_an_error(self):
        from repro.evaluate import build_scoreboard

        with pytest.raises(ValueError, match="no shards"):
            build_scoreboard({"shards": []})

    def test_scoreboard_is_deterministic(self):
        import json

        from repro.evaluate import build_scoreboard

        a = json.dumps(build_scoreboard(self.aggregate()), sort_keys=True)
        b = json.dumps(build_scoreboard(self.aggregate()), sort_keys=True)
        assert a == b


class TestReactionTime:
    def test_reaction_time_pairs_onsets_with_activations(self):
        from repro.core.elastic_scaler import ScalingEvent
        from repro.workloads.scenario import reaction_time_s

        class FakeTracker:
            def __init__(self, history):
                self.history = history

        trackers = [FakeTracker([
            (0.0, 0.01, False),
            (10.0, 0.05, True),   # onset at t=10
            (20.0, 0.01, False),
            (30.0, 0.05, True),   # onset at t=30
        ])]
        events = [
            ScalingEvent(12.0, {"worker": 1}),
            ScalingEvent(31.0, {"worker": 1}),
        ]
        assert reaction_time_s(trackers, events) == pytest.approx(1.5)

    def test_reaction_time_none_without_onsets(self):
        from repro.workloads.scenario import reaction_time_s

        class FakeTracker:
            history = [(0.0, 0.01, False)]

        assert reaction_time_s([FakeTracker()], []) is None


# ----------------------------------------------------------------------
# a bad knob is a usage error before anything runs
# ----------------------------------------------------------------------

#: specs that at one time started a run (or a sweep) and failed inside it
BAD_SPECS = [
    ("scale-reactively:bogus=1", "unknown knob 'bogus'"),
    ("drs:target_fraction=abc", "target_fraction must be"),
    ("scale-reactively:rho_max=nan", "rho_max must be"),
    ("scale-reactively:rho_max=7", "rho_max must be"),
    ("scale-reactively:staleness_threshold=nan", "staleness_threshold must be"),
    ("drs:staleness_threshold=nan", "staleness_threshold must be"),
]


class TestBadKnobsFailBeforeAnythingRuns:
    @pytest.mark.parametrize("spec, message", BAD_SPECS)
    def test_cli_run_exits_2(self, spec, message, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["run", "--duration", "30", "--policy", spec])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", BAD_SPECS)
    def test_builder_scale_raises_value_error(self, spec, message):
        from repro.builder import PipelineBuilder

        with pytest.raises(ValueError, match=message):
            PipelineBuilder("p").scale(spec)

    @pytest.mark.parametrize("spec, message", BAD_SPECS)
    def test_grid_raises_value_error(self, spec, message):
        from repro.sweep import SweepGrid

        with pytest.raises(ValueError, match=message):
            SweepGrid(policies=(spec,))

    def test_sweep_exits_2_and_starts_no_shard(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.cli import main
        from repro.sweep import SweepGrid

        monkeypatch.chdir(tmp_path)
        grid = SweepGrid.quick().describe()
        grid["policies"] = ["scale-reactively:bogus=1"]
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        assert main(["sweep", "--grid", "grid.json", "--out", "out"]) == 2
        assert capsys.readouterr().out.startswith("cannot build the sweep grid")
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--quick", "--policy", "scale-reactively:bogus=1",
                  "--out", "out"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("knobs, message", [
        ({"e_bounds": (0.0, 1.0)}, "e_bounds lo must be"),
        ({"e_bounds": (2.0, 1.0)}, "e_bounds hi must be"),
        ({"e_bounds": (0.05, float("inf"))}, "e_bounds hi must be"),
        ({"e_bounds": "x"}, "e_bounds must be a"),
        ({"w_fraction": True}, "w_fraction must be"),
        ({"w_fraction": 0.0}, "w_fraction must be"),
        ({"rho_max": 0.0}, "rho_max must be"),
        ({"staleness_threshold": float("inf")}, "staleness_threshold must be"),
    ])
    def test_scale_reactively_constructor_names_the_knob(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            create_policy("scale-reactively", PolicyContext(), **knobs)

    @pytest.mark.parametrize("name", ["cpu-threshold", "rate", "daedalus", "predictive"])
    def test_every_staleness_gate_rejects_nan(self, name):
        with pytest.raises(ValueError, match="staleness_threshold must be"):
            create_policy(name, PolicyContext(), staleness_threshold=float("nan"))

    def test_good_knobs_still_build(self):
        from repro.builder import PipelineBuilder

        PipelineBuilder("p").scale("scale-reactively:rho_max=0.8,w_fraction=0.3")
        policy = create_policy(
            "scale-reactively", PolicyContext(), e_bounds=[1.0, 1.0],
            staleness_threshold=None,
        )
        assert policy.knobs()["e_bounds"] == [1.0, 1.0]


# ----------------------------------------------------------------------
# a policy's parameters live in its spec
# ----------------------------------------------------------------------


class TestPolicyParametersLiveInTheSpec:
    def test_no_engine_field_is_a_policy_parameter(self):
        import dataclasses
        import inspect

        from repro.core.batching_policy import AdaptiveBatchingPolicy
        from repro.engine.engine import EngineConfig

        parameters = set(inspect.signature(AdaptiveBatchingPolicy).parameters)
        for name in registered_policies():
            parameters |= set(create_policy(name, PolicyContext()).knobs())
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert fields & parameters == set()
        assert PolicyContext.__slots__ == ("constraints", "vertices")

    @pytest.mark.parametrize("manifest", [
        "manifest.json", "macro/manifest.json", "stateful/manifest.json",
    ])
    def test_a_golden_spec_alone_rebuilds_its_knobs(self, manifest):
        import json
        import os

        path = os.path.join(os.path.dirname(__file__), "golden", manifest)
        with open(path) as handle:
            scaling = json.load(handle)["scaling"]
        policy = parse_policy_spec(scaling["policy_spec"]).build(PolicyContext())
        assert policy.knobs() == scaling["policy_knobs"]
