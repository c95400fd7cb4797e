"""Tests for the observability subsystem (repro.obs).

Covers the metrics primitives, the decision-trace schema (including a
golden-record round-trip guarding JSONL stability), the manifest export,
the shared sampling clock, the unified ``engine.submit(pipeline)`` API,
and the two end-to-end acceptance properties: every parallelism change
in the scaling log is matched by a trace record naming the branch, and a
run with observability disabled is behaviorally identical to one with it
enabled.
"""

import json
import math
import os
import random
import struct
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.builder import PipelineBuilder
from repro.engine.engine import EngineConfig, StreamProcessingEngine
from repro.obs import (
    BRANCH_BOTTLENECK,
    BRANCH_INFEASIBLE,
    BRANCH_REBALANCE,
    BRANCH_STALE_SKIP,
    DEFAULT_BUCKETS,
    TRACE_FIELDS,
    TRACE_SCHEMA_VERSION,
    Counter,
    DecisionTrace,
    Histogram,
    MetricsRegistry,
    ObservabilityConfig,
    RunManifest,
    SamplingClock,
    TraceRecord,
    finite_or_none,
    graph_hash,
    utilization_samples,
    validate_record_dict,
    validate_trace_file,
)
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import Gamma
from repro.workloads.rates import ConstantRate


def build_pipeline(observe_dir=None, rate=400.0, bound=0.030):
    builder = (
        PipelineBuilder("obs-test")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(rate))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=bound, name="e2e")
    )
    if observe_dir is not None:
        builder.observe(export_dir=observe_dir)
    return builder.build()


def run_elastic(duration=120.0, observability=None, pipeline=None, seed=7):
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=seed), observability=observability
    )
    job = engine.submit(pipeline if pipeline is not None else build_pipeline())
    engine.run(duration)
    return engine, job


# ----------------------------------------------------------------------
# metrics primitives
# ----------------------------------------------------------------------


class _PerSampleHistogram:
    """The reference: what ``Histogram.observe`` computed per sample before
    samples were appended and folded when read."""

    def __init__(self, bounds):
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value != value:
            self.bucket_counts[-1] += 1
        else:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1


def _bits(value):
    """A float's IEEE-754 bytes, so -0.0 differs from 0.0; None stays None.

    Every NaN is one value: the sign and payload of a sum's NaN depend on
    which operand the C compiler puts first, which IEEE addition leaves
    open, so not even the per-sample recurrence fixes them.
    """
    if value is None or value != value:
        return None if value is None else "nan"
    return struct.pack("<d", value)


class TestMetricsPrimitives:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_histogram_stats_and_buckets(self):
        h = Histogram("x", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)
        assert h.min == 0.05 and h.max == 2.0
        assert h.mean == pytest.approx(0.85)
        snap = h.snapshot()
        # cumulative counts: le_0.1 -> 1, le_1 -> 2, le_inf -> 3
        assert snap["buckets"] == {"le_0.1": 1, "le_1": 2, "le_inf": 3}

    @pytest.mark.parametrize("bounds", [DEFAULT_BUCKETS, (0.0, 0.5), (-2.0, -1.0, 3.0), (1.0,)])
    def test_histogram_bucket_search_equals_the_linear_scan(self, bounds):
        def linear_bucket(value):
            for index, bound in enumerate(bounds):
                if value <= bound:
                    return index
            return len(bounds)

        inf = float("inf")
        values = [0.0, -0.0, -1e-9, -inf, inf, bounds[0] - 1.0, bounds[-1] + 1.0]
        for bound in bounds:
            values += [bound, math.nextafter(bound, -inf), math.nextafter(bound, inf)]
        rng = random.Random(7)
        values += [rng.gammavariate(2.0, 0.01) for _ in range(10_000)]
        h = Histogram("x", bounds=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            h.observe(value)
            expected[linear_bucket(value)] += 1
        assert h.bucket_counts == expected
        assert sum(expected[:-1]) > 0 and h.count == len(values)

    def test_histogram_nan_lands_in_the_overflow_bucket(self):
        h = Histogram("x", bounds=(0.1, 1.0))
        h.observe(float("nan"))
        assert h.bucket_counts == [0, 0, 1]
        assert h.count == 1

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("x", bounds=(1.0, 0.1))

    # Each of these bounds used to be accepted and then misreported: an
    # infinite bound's ``le_inf`` key overwrote the overflow bucket's, a
    # duplicate bound kept four counts under three keys, and a NaN bound
    # put 0.5 under ``le_nan``.
    @pytest.mark.parametrize("bounds", [
        (1.0, float("inf")), (float("-inf"), 1.0), (0.1, 0.1, 1.0), (float("nan"),), (0.1, float("nan"), 1.0),
    ], ids=["inf", "minus-inf", "duplicate", "nan", "nan-between"])
    def test_histogram_rejects_bounds_it_cannot_report(self, bounds):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Histogram("x", bounds=bounds)

    def test_histogram_rejects_bounds_whose_bucket_names_collide(self):
        # both would snapshot as ``le_0.1``, so one bucket would vanish
        with pytest.raises(ValueError, match=r"0\.1 and 0\.1000001 share the bucket name le_0\.1"):
            Histogram("x", bounds=(0.1, 0.1000001))
        assert Histogram("x", bounds=(0.1, 0.100001)).snapshot()["buckets"] == {
            "le_0.1": 0, "le_0.100001": 0, "le_inf": 0}
        assert len(Histogram("x").snapshot()["buckets"]) == len(DEFAULT_BUCKETS) + 1

    def test_histogram_reads_fold_what_observe_appended(self):
        h = Histogram("x", bounds=(0.1, 1.0))
        h.observe(0.5)
        assert h._samples == [0.5]
        assert h.count == 1 and h._samples == []
        h.observe(2.0)
        assert h.snapshot()["buckets"] == {"le_0.1": 0, "le_1": 1, "le_inf": 2}

    @staticmethod
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_histogram_fold_equals_the_per_sample_recurrence(data):
        """Reads fold pending samples exactly as observing them one by one.

        Chunks of samples (NaN, signed zeros, infinities, values on a
        bound and arbitrary floats) are observed into a ``Histogram`` and
        a reference running the per-sample recurrence the histogram kept
        before its fold; every read between chunks must match bit for bit.
        """
        bounds = tuple(sorted(set(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6,
        ).map(lambda xs: [x + 0.0 for x in xs])))))  # -0.0 == 0.0: one bound
        special = st.sampled_from(
            (float("nan"), 0.0, -0.0, float("inf"), float("-inf")) + bounds
        )
        value = st.one_of(st.floats(), special)
        h, reference = Histogram("x", bounds=bounds), _PerSampleHistogram(bounds)
        for chunk in data.draw(st.lists(st.lists(value, max_size=40), max_size=6)):
            for v in chunk:
                h.observe(v)
                reference.observe(v)
            assert h.count == reference.count
            assert _bits(h.sum) == _bits(reference.sum)
            assert _bits(h.min) == _bits(reference.min)
            assert _bits(h.max) == _bits(reference.max)
            assert h.bucket_counts == reference.bucket_counts

    def test_registry_get_or_create_identity(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.histogram("c") is r.histogram("c")
        assert list(r.snapshot()) == ["a", "c"]
        assert len(r) == 2

    def test_registry_kind_mismatch(self):
        r = MetricsRegistry()
        r.counter("a")
        with pytest.raises(TypeError):
            r.histogram("a")

    def test_registry_snapshot_flat(self):
        r = MetricsRegistry()
        r.counter("a").inc(2)
        r.histogram("c").observe(0.01)
        snap = r.snapshot()
        assert snap["a"] == 2
        assert snap["c"]["count"] == 1


# ----------------------------------------------------------------------
# trace records and schema stability
# ----------------------------------------------------------------------

#: a golden record in the current wire format — if this test breaks,
#: the schema changed and TRACE_SCHEMA_VERSION must be bumped
GOLDEN_RECORD = (
    '{"schema": 5, "time": 35.000001, "job": "obs-test", "round": 7, '
    '"constraint": "e2e", "vertex": "worker", "branch": "rebalance", '
    '"budget": 0.0052, "measured_wait": 0.0009, "predicted_wait": 0.0017, '
    '"e": 0.96, "utilization": 0.41, "utilization_at_target": 0.55, '
    '"p_before": 4, "p_target": 3, "p_applied": -1, "detail": "", '
    '"attempt": null, "state_bytes": null}'
)

#: an actuation retry: the attempt field is set
GOLDEN_ACTUATION_RECORD = (
    '{"schema": 5, "time": 41.5, "job": "obs-test", "round": 0, '
    '"constraint": "*", "vertex": "worker", "branch": "retry-backoff", '
    '"budget": null, "measured_wait": null, "predicted_wait": null, '
    '"e": null, "utilization": null, "utilization_at_target": null, '
    '"p_before": 4, "p_target": 8, "p_applied": null, '
    '"detail": "retry in 2.000s", "attempt": 2, "state_bytes": null}'
)

#: a state migration: the moved-bytes field is set
GOLDEN_MIGRATION_RECORD = (
    '{"schema": 5, "time": 52.25, "job": "obs-test", "round": 0, '
    '"constraint": "*", "vertex": "worker", "branch": "migration-pending", '
    '"budget": null, "measured_wait": null, "predicted_wait": null, '
    '"e": null, "utilization": null, "utilization_at_target": null, '
    '"p_before": 4, "p_target": 8, "p_applied": null, '
    '"detail": "migrating 98304 bytes", "attempt": 1, '
    '"state_bytes": 98304}'
)


class TestTraceSchema:
    def test_field_order_is_frozen(self):
        assert TRACE_FIELDS == (
            "schema", "time", "job", "round", "constraint", "vertex",
            "branch", "budget", "measured_wait", "predicted_wait", "e",
            "utilization", "utilization_at_target", "p_before", "p_target",
            "p_applied", "detail", "attempt", "state_bytes",
        )

    def test_golden_round_trip(self):
        data = json.loads(GOLDEN_RECORD)
        record = TraceRecord.from_dict(data)
        assert record.to_dict() == data
        assert json.loads(record.to_json()) == data
        assert validate_record_dict(data) == []

    def test_golden_actuation_round_trip(self):
        data = json.loads(GOLDEN_ACTUATION_RECORD)
        record = TraceRecord.from_dict(data)
        assert record.attempt == 2
        assert record.to_dict() == data
        assert validate_record_dict(data) == []

    def test_golden_migration_round_trip(self):
        data = json.loads(GOLDEN_MIGRATION_RECORD)
        record = TraceRecord.from_dict(data)
        assert record.state_bytes == 98304
        assert record.to_dict() == data
        assert validate_record_dict(data) == []

    def test_v3_branch_must_name_vertex(self):
        data = json.loads(GOLDEN_MIGRATION_RECORD)
        data["vertex"] = None
        assert any("must name a vertex" in e for e in validate_record_dict(data))

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(1.0, "e2e", "nonsense")

    def test_schema_version_checked(self):
        for schema in (1, 2, 3, 4, 99):
            data = json.loads(GOLDEN_RECORD)
            data["schema"] = schema
            with pytest.raises(ValueError, match="expected 5"):
                TraceRecord.from_dict(data)
            assert validate_record_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("time", True),
        ("time", float("nan")),
        ("p_before", True),
        ("budget", False),
        ("round", "x"),
        ("round", -1),
        ("job", 3),
        ("detail", 5),
        ("branch", ["rebalance"]),
    ])
    def test_validate_rejects_malformed_values(self, field, value):
        data = json.loads(GOLDEN_RECORD)
        data[field] = value
        assert any(field in e for e in validate_record_dict(data))

    def test_validate_requires_every_field(self):
        for field in TRACE_FIELDS:
            data = json.loads(GOLDEN_RECORD)
            del data[field]
            assert validate_record_dict(data), field

    def test_finite_or_none(self):
        assert finite_or_none(None) is None
        assert finite_or_none(float("inf")) is None
        assert finite_or_none(float("nan")) is None
        assert finite_or_none(1.5) == 1.5

    def test_infinite_wait_serializes_as_null(self):
        record = TraceRecord(
            1.0, "e2e", BRANCH_REBALANCE, vertex="worker",
            predicted_wait=float("inf"),
        )
        assert record.predicted_wait is None
        assert '"predicted_wait": null' in record.to_json()

    def test_validate_flags_missing_vertex_on_action_branches(self):
        for branch in (BRANCH_REBALANCE, BRANCH_BOTTLENECK):
            data = TraceRecord(1.0, "e2e", branch, vertex="w").to_dict()
            data["vertex"] = None
            assert any("must name a vertex" in e for e in validate_record_dict(data))

    def test_validate_flags_unknown_fields_and_bad_types(self):
        data = json.loads(GOLDEN_RECORD)
        data["surprise"] = 1
        data["p_target"] = "three"
        errors = validate_record_dict(data)
        assert any("unknown fields" in e for e in errors)
        assert any("p_target" in e for e in errors)

    def test_decision_trace_round_trip(self, tmp_path):
        trace = DecisionTrace()
        trace.append(TraceRecord(5.0, "e2e", BRANCH_STALE_SKIP, round=1))
        trace.append(
            TraceRecord(
                10.0, "e2e", BRANCH_REBALANCE, vertex="worker", round=2,
                p_before=4, p_target=3, p_applied=-1,
            )
        )
        path = trace.write_jsonl(str(tmp_path / "trace.jsonl"))
        assert validate_trace_file(path) == []
        loaded = DecisionTrace.read_jsonl(path)
        assert len(loaded) == 2
        assert loaded.rounds == 2
        assert loaded.records[1].vertex == "worker"
        assert loaded.branches() == {BRANCH_STALE_SKIP: 1, BRANCH_REBALANCE: 1}
        assert [r.p_applied for r in loaded.records if r.vertex == "worker"] == [-1]
        assert sum(r.constraint == "e2e" for r in loaded.records) == 2

    def test_validate_trace_file_reports_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"schema": 1}\n')
        errors = validate_trace_file(str(path))
        assert any("not valid JSON" in e for e in errors)
        assert any("line 2" in e for e in errors)


# ----------------------------------------------------------------------
# one trace reader: ``read_jsonl`` and ``trace show`` refuse what
# ``trace --check`` reports
# ----------------------------------------------------------------------


def _export_dir(tmp_path, record=None, manifest=None):
    """An export directory with a one-record trace and/or a manifest."""
    from repro.obs.manifest import MANIFEST_FILE, TRACE_FILE

    if record is not None:
        (tmp_path / TRACE_FILE).write_text(json.dumps(record) + "\n")
    if manifest is not None:
        (tmp_path / MANIFEST_FILE).write_text(manifest)
    return str(tmp_path)


class TestOneTraceReader:
    @pytest.mark.parametrize("change, error", [
        ({"bogus": 1}, "unknown fields ['bogus']"),
        ({"round": "7"}, "round must be an integer >= 0"),
        ({"schema": 9}, "unsupported trace schema 9 (expected 5)"),
    ], ids=["unknown-field", "string-round", "other-schema"])
    def test_every_reader_refuses_what_check_reports(self, change, error, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.manifest import TRACE_FILE, check_export

        directory = _export_dir(tmp_path, dict(json.loads(GOLDEN_RECORD), **change))
        path = os.path.join(directory, TRACE_FILE)
        assert f"line 1: {error}" in validate_trace_file(path)
        assert f"{path}: line 1: {error}" in check_export(directory)[1]
        with pytest.raises(ValueError, match=r"^line 1: "):
            DecisionTrace.read_jsonl(path)
        assert main(["trace", "show", directory]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line == f"cannot read {path}: line 1: {error}"

    def test_from_dict_is_the_validator(self):
        data = dict(json.loads(GOLDEN_RECORD), vertex=None)
        with pytest.raises(ValueError, match="rebalance records must name a vertex"):
            TraceRecord.from_dict(data)

    @pytest.mark.parametrize("manifest, reason", [
        ("{not json", "Expecting property name"),
        ("[]", "unsupported manifest schema None (expected 1)"),
        ('{"schema": 9}', "unsupported manifest schema 9 (expected 1)"),
        ('{"schema": 1}', "manifest lacks job, seed, graph_hash, virtual_time_s, "
                          "final_parallelism"),
        ('{"schema": 1, "job": "j", "seed": 1, "graph_hash": "h", '
         '"virtual_time_s": "60", "final_parallelism": {}}',
         "manifest virtual_time_s '60' is not a number"),
        ('{"schema": 1, "job": "j", "seed": 1, "graph_hash": "h", '
         '"virtual_time_s": 60, "final_parallelism": {}, "scaling": [1]}',
         "manifest scaling is not an object"),
    ], ids=["not-json", "not-an-object", "other-schema", "no-keys", "text-time",
            "list-scaling"])
    @pytest.mark.parametrize("with_trace", [True, False], ids=["trace", "no-trace"])
    def test_trace_show_refuses_a_corrupt_manifest_in_one_line(
        self, manifest, reason, with_trace, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.obs.manifest import MANIFEST_FILE, check_export

        record = json.loads(GOLDEN_RECORD) if with_trace else None
        directory = _export_dir(tmp_path, record, manifest)
        assert main(["trace", "show", directory]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        path = os.path.join(directory, MANIFEST_FILE)
        assert line.startswith(f"cannot read {path}: ")
        assert reason in line
        assert any(error.startswith(f"{path}: ") and reason in error
                   for error in check_export(directory)[1])


# ----------------------------------------------------------------------
# sampling clock
# ----------------------------------------------------------------------


class TestSamplingClock:
    def test_fans_out_in_subscription_order(self):
        sim = Simulator()
        clock = SamplingClock(sim, 5.0)
        calls = []
        clock.subscribe(lambda now: calls.append(("a", now)))
        clock.subscribe(lambda now: calls.append(("b", now)))
        sim.run(until=11.0)
        assert [tag for tag, _ in calls] == ["a", "b", "a", "b"]
        assert calls[0][1] == pytest.approx(5.0, abs=1e-5)

    def test_engine_clock_shared_per_interval(self):
        engine = StreamProcessingEngine(EngineConfig())
        assert engine.sampling_clock(5.0) is engine.sampling_clock(5.0)
        assert engine.sampling_clock(2.0) is not engine.sampling_clock(5.0)

    def test_series_recorder_uses_engine_clock(self):
        from repro.experiments.recording import SeriesRecorder

        engine = StreamProcessingEngine(EngineConfig())
        recorder = SeriesRecorder(engine, interval=5.0)
        clock = engine.sampling_clock(5.0)
        assert recorder._clock is clock

    def test_utilization_samples_deltas_and_eviction(self):
        class T:
            def __init__(self, uid, busy):
                self.uid, self.busy_time = uid, busy

        last = {}
        # first sight contributes 0
        assert utilization_samples([T(1, 10.0)], last, 5.0) == [0.0]
        # busy delta of 2.5s over a 5s interval -> 0.5
        assert utilization_samples([T(1, 12.5)], last, 5.0) == [0.5]
        # dead tasks evicted
        utilization_samples([T(2, 0.0)], last, 5.0)
        assert 1 not in last and 2 in last


# ----------------------------------------------------------------------
# config threading and unified submit
# ----------------------------------------------------------------------


class TestObservabilityConfig:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(sample_interval=0)

    def test_engine_adopts_pipeline_observability(self, tmp_path):
        pipeline = build_pipeline(observe_dir=str(tmp_path))
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        assert engine.observability is None and engine.metrics is None
        job = engine.submit(pipeline)
        assert engine.observability is pipeline.observability
        assert engine.metrics is not None
        assert job.trace is not None

    def test_engine_config_wins_over_pipeline(self, tmp_path):
        mine = ObservabilityConfig(metrics=False, trace=True)
        pipeline = build_pipeline(observe_dir=str(tmp_path))
        engine = StreamProcessingEngine(EngineConfig(elastic=True), observability=mine)
        engine.submit(pipeline)
        assert engine.observability is mine
        assert engine.metrics is None

    def test_observability_off_by_default(self):
        engine, job = run_elastic(duration=20.0)
        assert engine.observability is None
        assert engine.metrics is None
        assert job.trace is None


class TestUnifiedSubmit:
    def test_submit_pipeline_equals_submit_parts(self):
        pipeline = build_pipeline()
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        job = engine.submit(pipeline)
        assert job.job_graph is pipeline.graph
        assert job.constraints == pipeline.constraints

    def test_submit_pipeline_rejects_extra_args(self):
        pipeline = build_pipeline()
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        with pytest.raises(TypeError):
            engine.submit(pipeline, pipeline.constraints)

    def test_submit_names_what_it_accepts(self):
        engine = StreamProcessingEngine(EngineConfig())
        with pytest.raises(TypeError, match="JobGraph or a BuiltPipeline, not NoneType"):
            engine.submit(None)
        builder = PipelineBuilder("unbuilt").source(
            lambda now, rng: 0, rate=ConstantRate(10.0)
        )
        with pytest.raises(TypeError, match=r"BuiltPipeline, not PipelineBuilder.*\.build\(\)"):
            engine.submit(builder)
        assert engine.jobs == []


# ----------------------------------------------------------------------
# end-to-end acceptance
# ----------------------------------------------------------------------


class TestEndToEnd:
    def _run_with_obs(self, tmp_path, duration=120.0):
        pipeline = build_pipeline(observe_dir=str(tmp_path / "obs"))
        return run_elastic(duration=duration, pipeline=pipeline)

    def test_every_scaling_action_has_a_trace_record(self, tmp_path):
        engine, job = self._run_with_obs(tmp_path)
        changes = [
            (event.time, vertex, delta)
            for event in job.scaler.events
            for vertex, delta in event.applied.items()
        ]
        assert changes, "run produced no scaling actions — not a useful check"
        action_branches = {BRANCH_REBALANCE, BRANCH_BOTTLENECK, BRANCH_INFEASIBLE}
        for t, vertex, delta in changes:
            matches = [
                r for r in job.trace
                if r.vertex == vertex
                and r.time == t
                and r.branch in action_branches
                and r.p_applied == delta
            ]
            assert matches, (
                f"scaling action t={t} {vertex} {delta:+d} has no trace record"
            )

    def test_trace_records_carry_model_terms(self, tmp_path):
        engine, job = self._run_with_obs(tmp_path)
        rebalances = [r for r in job.trace if r.branch == BRANCH_REBALANCE]
        assert rebalances
        for r in rebalances:
            assert r.job == "obs-test"
            assert r.round > 0
            assert r.budget is not None and r.budget > 0
            assert r.e is not None and r.e > 0
            assert r.p_before is not None and r.p_target is not None
            assert r.utilization is not None

    def test_export_round_trip(self, tmp_path):
        engine, job = self._run_with_obs(tmp_path)
        paths = engine.export_run()
        assert set(paths) == {"manifest", "metrics", "trace"}
        for path in paths.values():
            assert os.path.exists(path)
        assert validate_trace_file(paths["trace"]) == []
        manifest = RunManifest.read(paths["manifest"])
        assert manifest["job"] == "obs-test"
        assert manifest["seed"] == 7
        assert manifest["graph_hash"] == graph_hash(job.job_graph)
        assert manifest["final_parallelism"] == {
            name: rv.parallelism for name, rv in job.runtime.vertices.items()
        }
        assert manifest["scaling"]["rounds"] == job.scaler.rounds
        assert manifest["observability"]["trace_records"] == len(job.trace)
        assert manifest["files"] == {
            "manifest": "manifest.json",
            "metrics": "metrics.jsonl",
            "trace": "trace.jsonl",
        }
        # metrics.jsonl rows are strict JSON with monotonically rising time
        with open(paths["metrics"]) as f:
            rows = [json.loads(line) for line in f]
        assert rows
        times = [row["time"] for row in rows]
        assert times == sorted(times)
        assert "cluster.task_seconds" in rows[-1]["metrics"]
        assert not any(key.startswith("sim.") for key in rows[-1]["metrics"])

    def test_metrics_registry_populated(self, tmp_path):
        engine, job = self._run_with_obs(tmp_path)
        snap = engine._metrics_sampler.snapshots[-1]["metrics"]
        assert snap["cluster.task_seconds"] > 0
        assert snap["cluster.active_tasks"] >= 1
        assert snap["scheduler.tasks_started"] >= 6
        assert snap["scheduler.deploys"] == 1
        assert snap["qos.collects"] > 0
        assert snap["service_time.worker"]["count"] > 0

    def test_disabled_run_is_behaviorally_identical(self):
        baseline_engine, baseline = run_elastic(duration=90.0)
        obs = ObservabilityConfig()
        enabled_engine, enabled = run_elastic(duration=90.0, observability=obs)
        assert [(e.time, e.applied) for e in baseline.scaler.events] == [
            (e.time, e.applied) for e in enabled.scaler.events
        ]
        counts = ("tasks_started", "scale_ups", "scale_downs")
        assert [getattr(baseline.scheduler, c) for c in counts] == [
            getattr(enabled.scheduler, c) for c in counts
        ]

    def test_graph_hash_stable_and_structure_sensitive(self):
        a, b = build_pipeline(), build_pipeline()
        assert graph_hash(a.graph) == graph_hash(b.graph)
        c = build_pipeline(rate=999.0)  # same structure, different workload
        assert graph_hash(a.graph) == graph_hash(c.graph)
        d = (
            PipelineBuilder("obs-test")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
            .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 16))
            .sink()
            .constrain(bound=0.030, name="e2e")
            .build()
        )
        assert graph_hash(a.graph) != graph_hash(d.graph)  # p_max differs

    def test_schema_version_in_every_exported_line(self, tmp_path):
        # One schema: every line carries the current version and every
        # field, a stateless run's state_bytes written as null.
        engine, job = self._run_with_obs(tmp_path, duration=60.0)
        paths = engine.export_run()
        with open(paths["trace"]) as f:
            for line in f:
                data = json.loads(line)
                assert data["schema"] == TRACE_SCHEMA_VERSION
                assert tuple(data) == TRACE_FIELDS
                assert data["state_bytes"] is None
