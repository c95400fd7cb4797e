"""What a process loads: the import contract of the lazy package tables.

A package ``__init__`` is an export table resolved on first access, and
``engine/engine.py`` / ``builder.py`` import each optional subsystem in
the branch that constructs it. The rule these tests pin:

* a plain job compiles no optional subsystem;
* a subsystem a job does use is loaded by ``submit()`` (or ``build()``),
  **never inside ``engine.run``**;
* a process that forks shards has loaded everything a shard can build
  once it has imported ``repro.sweep.shard``.

Module loading is per process, so every case runs in a fresh interpreter.
One rule needs no interpreter: ``repro.core`` (the policies and the
elastic scaler) imports neither ``repro.engine`` nor ``repro.actuation``,
so a policy's ``decide`` can be fed summaries with no engine behind it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import textwrap

import pytest

from conftest import ROOT, run_fresh

#: the hygiene job of .github/workflows/ci.yml runs this very script
PLAIN_JOB_CONTRACT = '''\
import sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro."))
assert not loaded, f"import repro loaded {loaded}"
from repro import (ConstantRate, EngineConfig, Gamma, JobGraph, JobSequence,
                   LatencyConstraint, MapUDF, SinkUDF, SourceUDF, StreamProcessingEngine)
graph = JobGraph("plain")
source = graph.add_vertex("source", lambda: SourceUDF(lambda now, rng: rng.random()))
source.rate_profile = ConstantRate(200.0)
work = graph.add_vertex("work", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.002, 0.7)))
graph.connect(source, work)
graph.connect(work, graph.add_vertex("sink", lambda: SinkUDF()))
tracked = LatencyConstraint(
    JobSequence.from_names(graph, ["work"], leading_edge=True, trailing_edge=True), bound=0.05)
engine = StreamProcessingEngine(EngineConfig())
job = engine.submit(graph, [tracked])
engine.run(2.0)
assert job.runtime.vertex("work").tasks[0].items_processed > 100
loaded = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
print(len(loaded), "repro modules:", " ".join(loaded))
optional = (
    "repro.actuation", "repro.engine.state", "repro.engine.operators", "repro.simulation.faults",
    "repro.obs", "repro.core.elastic_scaler", "repro.core.policy", "repro.core.scale_reactively",
    "repro.core.batching_policy", "repro.core.latency_model", "repro.core.rebalance",
    "repro.builder", "repro.workloads.twitter_job", "repro.workloads.tweets",
    "repro.workloads.primetester", "repro.sweep", "repro.experiments", "repro.evaluate",
    "repro.bench", "repro.cli")
back = [m for m in loaded if m in optional or m.startswith(tuple(o + "." for o in optional))]
assert not back, f"a plain job loaded {back}"
assert "numpy" not in sys.modules, "a plain job loaded numpy"
'''

#: shared by the feature cases: a constrained three-vertex graph, and a
#: run wrapper that fails when ``engine.run`` grows ``sys.modules``
PREAMBLE = '''\
import sys
import repro
from repro import (ConstantRate, EngineConfig, Gamma, JobGraph, JobSequence,
                   LatencyConstraint, MapUDF, SinkUDF, SourceUDF, StreamProcessingEngine)

RUNS = []
_run = StreamProcessingEngine.run

def run(self, duration):
    before = set(sys.modules)
    _run(self, duration)
    grown = sorted(set(sys.modules) - before)
    assert not grown, f"engine.run imported {grown}"
    RUNS.append(duration)

StreamProcessingEngine.run = run

def job_graph():
    graph = JobGraph("case")
    source = graph.add_vertex("source", lambda: SourceUDF(lambda now, rng: rng.random()))
    source.rate_profile = ConstantRate(300.0)
    work = graph.add_vertex(
        "work", lambda: MapUDF(lambda x: x, service_dist=Gamma(0.004, 0.7)),
        parallelism=2, min_parallelism=1, max_parallelism=16)
    graph.connect(source, work)
    graph.connect(work, graph.add_vertex("sink", lambda: SinkUDF()))
    constraint = LatencyConstraint(
        JobSequence.from_names(graph, ["work"], leading_edge=True, trailing_edge=True),
        bound=0.03, name="e2e")
    return graph, [constraint]

def loaded(*modules):
    return [m for m in modules if m in sys.modules]
'''

#: feature -> (the modules only it needs, how the job is set up). ``engine``
#: and ``job`` must exist afterwards; ``EXPECTED`` is checked before the
#: set-up runs (absent) and right after it, i.e. after ``submit`` (present).
FEATURES = {
    "elastic": (
        ("repro.core.elastic_scaler", "repro.core.policy", "repro.core.scale_reactively"),
        """
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        job = engine.submit(*job_graph())
        """,
    ),
    "actuation": (
        ("repro.actuation.reconciler",),
        """
        from repro import ActuationConfig
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        job = engine.submit(*job_graph(), actuation=ActuationConfig())
        """,
    ),
    "stateful": (
        ("repro.engine.state",),
        """
        engine = StreamProcessingEngine(EngineConfig(elastic=True))
        pipeline = (repro.PipelineBuilder("case")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(300.0))
            .map("work", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(2, 1, 16))
            .sink().constrain(bound=0.03))
        assert not loaded(*EXPECTED)
        job = engine.submit(pipeline.stateful("work").build())
        """,
    ),
    "fault plan": (
        ("repro.simulation.faults",),
        """
        engine = StreamProcessingEngine(EngineConfig())
        pipeline = (repro.PipelineBuilder("case")
            .source(lambda now, rng: rng.random(), rate=ConstantRate(300.0))
            .map("work", lambda x: x, service=Gamma(0.004, 0.7), parallelism=2)
            .sink())
        assert not loaded(*EXPECTED)
        job = engine.submit(pipeline.inject(repro.TaskCrash(at=3.0, vertex="work")).build())
        assert job.fault_injector is not None
        """,
    ),
    "obs metrics + trace": (
        ("repro.obs.metrics", "repro.obs.sampling", "repro.obs.trace"),
        """
        from repro import ObservabilityConfig
        assert not loaded(*EXPECTED)
        engine = StreamProcessingEngine(
            EngineConfig(elastic=True), observability=ObservabilityConfig())
        job = engine.submit(*job_graph())
        assert engine.metrics is not None and job.trace is not None
        """,
    ),
    "adaptive batching with a constraint": (
        ("repro.core.batching_policy",),
        """
        engine = StreamProcessingEngine(EngineConfig.nephele_adaptive())
        job = engine.submit(*job_graph())
        """,
    ),
    "a BuiltPipeline": (
        ("repro.builder",),
        """
        engine = StreamProcessingEngine(EngineConfig())
        graph, constraints = job_graph()
        assert not loaded(*EXPECTED)
        job = engine.submit(repro.BuiltPipeline(graph, constraints))
        """,
    ),
}

#: the canonical scenarios (they call ``engine.run`` themselves)
SCENARIOS = {
    "golden": "import golden_scenario; golden_scenario.run_scenario(EXPORT)",
    "macro": "import golden_macro_scenario; golden_macro_scenario.run_scenario(EXPORT)",
    "stateful chaos": (
        "import golden_stateful_scenario; golden_stateful_scenario.run_scenario(EXPORT)"
    ),
    "shared cluster": (
        "from repro.workloads.scenario import ScenarioSpec, build\n"
        "spec = ScenarioSpec(seed=11, rate=1400.0, bound=0.06, workload='multi_job',"
        " duration=60.0)\n"
        "engine, jobs, _ = build(spec)\n"
        "engine.run(spec.duration)\n"
        "assert engine.resources.admission_denials >= 1\n"
    ),
}


def test_plain_job_loads_no_optional_subsystem():
    done = run_fresh(PLAIN_JOB_CONTRACT)
    assert "repro.engine.task" in done.stdout


def test_ci_runs_the_same_contract():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as handle:
        workflow = handle.read()
    assert textwrap.indent(PLAIN_JOB_CONTRACT, " " * 10) in workflow


@pytest.mark.parametrize("feature", FEATURES)
def test_feature_loads_at_submit_not_in_the_run(feature):
    expected, setup = FEATURES[feature]
    run_fresh(
        PREAMBLE
        + f"EXPECTED = {expected!r}\n"
        + "assert not loaded(*EXPECTED), f'loaded before use: {loaded(*EXPECTED)}'\n"
        + textwrap.dedent(setup)
        + "assert loaded(*EXPECTED) == list(EXPECTED), f'submit left out {EXPECTED}'\n"
        + "engine.run(10.0)\n"
        + "assert RUNS == [10.0]\n"
    )


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_canonical_scenario_run_imports_nothing(scenario, tmp_path):
    run_fresh(
        PREAMBLE + "EXPORT = sys.argv[1]\n" + SCENARIOS[scenario] + "\nassert len(RUNS) == 1\n",
        str(tmp_path),
    )


def test_a_forked_shard_imports_nothing(tmp_path):
    """``import repro.sweep.shard`` loads whatever any shard can build."""
    run_fresh(
        "import os, sys\n"
        "import repro.sweep.shard as shard\n"
        "from repro.workloads.scenario import WORKLOADS, ScenarioSpec\n"
        "before = set(sys.modules)\n"
        "for workload in WORKLOADS:\n"
        "    for actuation in (False, True):\n"
        "        spec = ScenarioSpec(seed=3, rate=200.0, bound=0.03, workload=workload,\n"
        "                            actuation=actuation, duration=10.0)\n"
        "        shard.execute_shard(spec, os.path.join(sys.argv[1], spec.key))\n"
        "        grown = sorted(m for m in set(sys.modules) - before if m.startswith('repro'))\n"
        "        assert not grown, f'{spec.key} imported {grown}'\n",
        str(tmp_path),
    )


def _runtime_imports(node):
    """Every import under ``node`` outside an ``if TYPE_CHECKING:`` body."""
    if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
        children = node.orelse
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        if isinstance(child, ast.Import):
            yield child.lineno, [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            yield child.lineno, [f"{child.module}.{alias.name}" for alias in child.names]
        else:
            yield from _runtime_imports(child)


def test_core_imports_neither_engine_nor_actuation():
    core = pathlib.Path(ROOT) / "src" / "repro" / "core"
    offenders = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(core.glob("*.py"))
        for lineno, names in _runtime_imports(ast.parse(path.read_text(encoding="utf-8")))
        for name in names
        if name.split(".")[:2] in (["repro", "engine"], ["repro", "actuation"])
    ]
    assert offenders == []


def test_cli_decides_no_file_format():
    """``cli.py`` parses flags, builds specs and prints; the owners read files.

    No ``"shards"`` literal (the aggregate-or-baseline question belongs to
    ``repro.evaluate.load_run``) and no export-file name, validator or
    manifest class (``repro.obs.manifest`` reads and checks a bundle).
    """
    tree = ast.parse((pathlib.Path(ROOT) / "src" / "repro" / "cli.py").read_text(encoding="utf-8"))
    shards = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "shards"
    ]
    owned = {"MANIFEST_FILE", "METRICS_FILE", "TRACE_FILE", "validate_trace_file",
             "validate_metrics_file", "RunManifest"}
    imported = [
        f"{lineno} {name}"
        for lineno, names in _runtime_imports(tree)
        for name in names
        if name.rsplit(".", 1)[-1] in owned
    ]
    assert (shards, imported) == ([], [])


def test_flow_control_is_written_once():
    """Only the data plane touches the queue and credit internals.

    The enqueue-or-park rule lives in ``RuntimeChannel._arrive``, the
    dequeue-and-wake rule in ``RuntimeTask._start_next`` and the queue's
    ``_notify_space``; no other module under ``src/repro`` reads
    ``_items``, ``_space_listeners``, ``_notify_space`` or ``_pending``,
    so no second copy of a rule can grow elsewhere.
    """
    src = pathlib.Path(ROOT) / "src" / "repro"
    owners = {src / "engine" / name for name in ("channel.py", "task.py", "queues.py")}
    internals = {"_items", "_space_listeners", "_notify_space", "_pending"}
    offenders = [
        f"{path.relative_to(src)}:{node.lineno} .{node.attr}"
        for path in sorted(src.rglob("*.py"))
        if path not in owners
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in internals
    ]
    assert offenders == []
