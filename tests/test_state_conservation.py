"""State-byte conservation: every byte a stateful vertex grew is held or lost.

A processed event grows one Zipf rank by ``bytes_per_event``; a crash
restore resets the crashed partition to its checkpoint and counts the
growth it drops in ``state_lost_bytes``; a migration's apply and rollback
only choose the parallelism a rank's partition is computed with. So at
every instant

    Σ state_bytes + state_lost_bytes == Σ bytes_per_event × items_processed

where the item sum covers every task a stateful vertex ever had, stopped
ones included, and no apply or rollback changes ``total_bytes``. This
module asserts both after every simulated second of the stateful golden
job and of ``tests/test_counted_once.py``'s denied-migration and
slow-transfer jobs.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

import golden_stateful_scenario
from repro.engine.state import KeyedState, StateManager
from test_counted_once import denied_migration_engine, slow_transfer_engine


class Ledger:
    """What the checks saw: tasks per manager, checks, applies, rollbacks."""

    def __init__(self):
        self.tasks = defaultdict(list)  # manager id -> every task it tracked
        self.managers = []
        self.checks = 0
        self.layout_changes = defaultdict(int)  # "apply"/"rollback" -> count

    def check(self, manager: StateManager) -> None:
        held = sum(manager.keyed_state(name).total_bytes for name in manager.vertices)
        grown = sum(manager.spec(task.vertex_name).bytes_per_event * task.items_processed
                    for task in self.tasks[id(manager)])
        assert held + manager.state_lost_bytes == grown, manager.sim.now
        self.checks += 1


@pytest.fixture
def ledger(monkeypatch):
    """Check conservation every simulated second of each stateful job."""
    book = Ledger()
    track, start = StateManager.track, StateManager.start

    def tracking(self, task):
        if self.is_stateful(task.vertex_name):
            book.tasks[id(self)].append(task)
        track(self, task)

    def starting(self):
        book.managers.append(self)
        self.sim.every(1.0, book.check, self)
        start(self)

    def layout_change(kind, original):
        def changed(self, plan):
            before = self.total_bytes
            original(self, plan)
            assert self.total_bytes == before, (kind, plan)
            book.layout_changes[kind] += 1
        return changed

    monkeypatch.setattr(StateManager, "track", tracking)
    monkeypatch.setattr(StateManager, "start", starting)
    monkeypatch.setattr(KeyedState, "apply", layout_change("apply", KeyedState.apply))
    monkeypatch.setattr(KeyedState, "rollback", layout_change("rollback", KeyedState.rollback))
    return book


def test_golden_stateful_job_conserves_state_bytes(ledger):
    golden_stateful_scenario.run_job()
    (manager,) = ledger.managers
    assert ledger.checks == 60
    # the run takes every path that moves or drops bytes
    assert manager.migrations_completed > 0 and manager.migrations_rolled_back > 0
    assert manager.crash_recoveries > 0 and manager.state_lost_bytes > 0
    assert ledger.layout_changes["apply"] > 0 and ledger.layout_changes["rollback"] > 0


@pytest.mark.parametrize("job, seconds", [
    (denied_migration_engine, 60.0),
    (slow_transfer_engine, 120.0),
], ids=["denied-migration", "slow-transfer"])
def test_migration_jobs_conserve_state_bytes(ledger, job, seconds):
    engine, _job = job()
    engine.run(seconds)
    (manager,) = ledger.managers
    assert ledger.checks == int(seconds)
    assert manager.migrations_rolled_back > 0
