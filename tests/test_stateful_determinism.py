"""Byte-identity regression test for the stateful-chaos scenario.

Replays the pinned golden stateful scenario
(``tests/golden_stateful_scenario.py``) — a stateful worker under a
service spike with a migration-failure window (forcing an in-flight
migration to roll back) and a task crash (checkpoint-restore recovery) —
and diffs its ``export_run`` artifacts byte-for-byte against the
committed copies in ``tests/golden/stateful/``. Any change to the
migration protocol's event ordering, RNG stream consumption, state
accounting or trace v3 emission shows up here as a diff — intentional
behavior changes must regenerate the goldens via ``PYTHONPATH=src
python tests/golden_stateful_scenario.py --write`` and say so in the PR
description.
"""

from __future__ import annotations

import json
import os
from array import array

import pytest

from repro.obs.trace import TRACE_SCHEMA_VERSION

from golden_stateful_scenario import GOLDEN_DIR, GOLDEN_FILES, run_job, run_scenario


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _first_diff_line(golden: bytes, fresh: bytes) -> str:
    golden_lines = golden.splitlines()
    fresh_lines = fresh.splitlines()
    for index, (g, f) in enumerate(zip(golden_lines, fresh_lines)):
        if g != f:
            return (
                f"first diff at line {index + 1}:\n"
                f"  golden: {g[:200]!r}\n"
                f"  fresh:  {f[:200]!r}"
            )
    return (
        f"line counts differ: golden={len(golden_lines)} fresh={len(fresh_lines)}"
    )


@pytest.fixture(scope="module")
def fresh_export(tmp_path_factory):
    """One replay of the stateful golden scenario, shared module-wide."""
    export_dir = str(tmp_path_factory.mktemp("stateful_golden_replay"))
    run_scenario(export_dir)
    return export_dir


class TestStatefulGoldenByteIdentity:
    def test_golden_files_exist(self):
        for name in GOLDEN_FILES:
            assert os.path.isfile(os.path.join(GOLDEN_DIR, name)), (
                f"missing golden file {name}; regenerate with "
                f"PYTHONPATH=src python tests/golden_stateful_scenario.py --write"
            )

    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_replay_is_byte_identical(self, fresh_export, name):
        golden = _read_bytes(os.path.join(GOLDEN_DIR, name))
        fresh = _read_bytes(os.path.join(fresh_export, name))
        assert fresh == golden, (
            f"{name} diverged from the golden copy "
            f"({_first_diff_line(golden, fresh)})"
        )

    def test_trace_covers_the_migration_lifecycle(self):
        """The pinned trace exercises every migration branch."""
        branches = set()
        with open(os.path.join(GOLDEN_DIR, "trace.jsonl")) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        for record in records:
            branches.add(record["branch"])
        assert {
            "migration-pending",
            "migration-failed",
            "migration-rolled-back",
            "migration-deferred",
        } <= branches, f"golden trace misses migration branches (have {sorted(branches)})"
        # every record is the current schema; migrations carry moved bytes
        for record in records:
            assert record["schema"] == TRACE_SCHEMA_VERSION
        assert any(
            record.get("state_bytes") for record in records
        ), "no migration record carries state_bytes"

    def test_manifest_records_the_state_section(self):
        with open(os.path.join(GOLDEN_DIR, "manifest.json")) as handle:
            manifest = json.load(handle)
        state = manifest["state"]
        assert state["migrations"]["rolled_back"] >= 1
        assert state["migrations"]["deferred"] >= 1
        assert state["crash_recoveries"] >= 1
        assert state["recovery_time_s"] > 0
        assert state["state_migrated_bytes"] > 0


class TestStatefulDoubleRunIdentity:
    def test_two_replays_are_byte_identical(self, fresh_export, tmp_path):
        """Same-seed determinism: two in-process runs export identical bytes."""
        second = str(tmp_path / "second")
        run_scenario(second)
        for name in GOLDEN_FILES:
            a = _read_bytes(os.path.join(fresh_export, name))
            b = _read_bytes(os.path.join(second, name))
            assert a == b, f"{name} differs between two same-seed runs"


def _behavior(job):
    """What a run did, obs aside: sink samples as bytes, the scaler's
    events, the state summary and the migration counters."""
    sinks = sorted(name for name, v in job.job_graph.vertices.items() if not v.outputs)
    samples = {
        name: array("d", [x for pair in job.drain_sink_samples(name) for x in pair]).tobytes()
        for name in sinks
    }
    events = [(e.time, e.applied) for e in job.scaler.events]
    manager = job.state_manager
    counters = (manager.migrations_started, manager.migrations_completed,
                manager.migrations_rolled_back, manager.migrations_deferred,
                manager.state_migrated_bytes)
    return samples, events, manager.summary(), counters


def test_obs_off_runs_the_same_stateful_simulation(tmp_path):
    """Obs on (histogram appends, trace, export) changes nothing simulated.

    The stateful golden job with obs on and with obs off must deliver
    the same sink samples bit for bit, scale at the same times to the
    same parallelism and end with the same keyed state and migration
    counts.
    """
    _engine, observed = run_job(str(tmp_path))
    _engine, plain = run_job()
    assert observed.trace is not None and plain.trace is None
    ours, theirs = _behavior(observed), _behavior(plain)
    assert ours[0] and all(ours[0].values())
    assert ours[1] and ours[3][1] and ours[3][2]
    assert ours == theirs
