"""The pinned stateful-chaos scenario behind its byte-identity test.

``tests/golden/stateful/`` holds the ``export_run`` artifacts (manifest,
scaler decision trace, metrics) of this scenario: a stateful worker under
a service spike, with a migration-failure window that forces an
in-flight state migration to roll back, and a task crash that loses
un-checkpointed state and recovers via checkpoint + replay. The trace
carries every v3 migration branch (``migration-pending``,
``migration-failed``, ``migration-rolled-back``, ``migration-deferred``)
so the golden pins both the migration protocol's event ordering and the
trace schema emission.

``tests/test_stateful_determinism.py`` replays the scenario on every run
and diffs the export byte-for-byte against the golden copies.

Regenerating the goldens (only when a PR *intentionally* changes
behavior — say so in the PR description)::

    PYTHONPATH=src python tests/golden_stateful_scenario.py --write
"""

from __future__ import annotations

import os
import sys

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "stateful"
)

#: the export files pinned by the golden copies
GOLDEN_FILES = ("manifest.json", "trace.jsonl", "metrics.jsonl")

#: bump alongside intentional behavior changes so stale goldens fail loudly
SCENARIO_SEED = 7
SCENARIO_DURATION = 60.0


def run_scenario(export_dir: str):
    """Run the pinned stateful-chaos scenario and export into ``export_dir``.

    Mirrors ``repro chaos --stateful --spike-at 12 --spike-duration 18
    --migration-fail-at 14 --crash-at 30 --checkpoint-interval 10
    --duration 60 --seed 7 --pin-wall-time``.
    """
    engine, _job = run_job(export_dir)
    return engine.export_run()


def run_job(export_dir=None):
    """Run the scenario; ``(engine, job)``. Obs is off without ``export_dir``."""
    from repro.builder import PipelineBuilder
    from repro.engine.engine import EngineConfig, StreamProcessingEngine
    from repro.simulation.faults import MigrationFailure, ServiceSpike, TaskCrash
    from repro.simulation.randomness import Gamma
    from repro.workloads.rates import ConstantRate

    pipeline = (
        PipelineBuilder("golden-stateful")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
        .map("worker", lambda x: x, service=Gamma(0.004, 0.7), parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030, name="e2e")
        .stateful("worker")
        .inject(ServiceSpike(at=12.0, vertex="worker", factor=3.0, duration=18.0))
        .inject(MigrationFailure(at=14.0, duration=15.0, vertex="worker"))
        .inject(TaskCrash(at=30.0, vertex="worker", restart_delay=2.0))
        .actuate()
    )
    if export_dir is not None:
        pipeline.observe(export_dir=export_dir, pin_wall_time=True)
    engine = StreamProcessingEngine(
        EngineConfig(elastic=True, seed=SCENARIO_SEED, checkpoint_interval=10.0)
    )
    job = engine.submit(pipeline.build())
    engine.run(SCENARIO_DURATION)
    return engine, job


def main(argv) -> int:
    if "--write" not in argv:
        print(__doc__)
        return 2
    paths = run_scenario(GOLDEN_DIR)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
