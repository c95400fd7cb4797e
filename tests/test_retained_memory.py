"""What a run retains per adjustment interval: O(job) state, O(m) windows.

A job's per-run state is sized by the job (one latest summary, one window
of the last *m* measurements per task and channel statistic); only the
trackers' one row per interval may grow with the run. The contract runs
a tracked 32-stage chain under ``tracemalloc`` and bounds what the second
half of the run leaves alive once the sink is drained.
"""

from __future__ import annotations

import os
import textwrap

from conftest import ROOT, run_fresh

#: the hygiene job of .github/workflows/ci.yml runs this very script
RETAINED_MEMORY_CONTRACT = '''\
import tracemalloc
from repro import (ConstantRate, Deterministic, EngineConfig, JobGraph, JobSequence,
                   LatencyConstraint, MapUDF, SinkUDF, SourceUDF, StreamProcessingEngine)
graph = JobGraph("chain")
previous = graph.add_vertex("source", lambda: SourceUDF(lambda now, rng: rng.random()))
previous.rate_profile = ConstantRate(20.0)
stages = [f"m{index:02d}" for index in range(32)]
for name in stages:
    vertex = graph.add_vertex(
        name, lambda: MapUDF(lambda x: x, service_dist=Deterministic(0.002)), parallelism=2)
    graph.connect(previous, vertex)
    previous = vertex
graph.connect(previous, graph.add_vertex("sink", lambda: SinkUDF()))
chain = LatencyConstraint(
    JobSequence.from_names(graph, stages, leading_edge=True, trailing_edge=True), bound=1.0)
config = EngineConfig()
engine = StreamProcessingEngine(config)
job = engine.submit(graph, [chain])
intervals = 20
tracemalloc.start()
engine.run(intervals * config.adjustment_interval)
job.drain_sink_samples("sink")
before = tracemalloc.take_snapshot()
engine.run(intervals * config.adjustment_interval)
job.drain_sink_samples("sink")
after = tracemalloc.take_snapshot()
tracemalloc.stop()
assert job.trackers[0].history, "the chain constraint was never measured"
ignore = [tracemalloc.Filter(False, tracemalloc.__file__)]
diff = after.filter_traces(ignore).compare_to(before.filter_traces(ignore), "lineno")
per_interval = sum(stat.size_diff for stat in diff) / intervals
top = "\\n".join(str(stat) for stat in diff[:3])
print(f"retained per adjustment interval: {per_interval:.0f} B")
print(top)
assert per_interval <= 1024, f"{per_interval:.0f} B retained per interval; top lines:\\n{top}"
'''


def test_a_run_retains_at_most_1_kib_per_adjustment_interval():
    done = run_fresh(RETAINED_MEMORY_CONTRACT)
    assert "retained per adjustment interval" in done.stdout


def test_ci_runs_the_same_retained_memory_contract():
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as handle:
        workflow = handle.read()
    assert textwrap.indent(RETAINED_MEMORY_CONTRACT, " " * 10) in workflow
