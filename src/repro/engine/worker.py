"""Worker nodes hosting runtime tasks in CPU slots.

Mirrors the paper's cluster (Appendix A): homogeneous workers with a
fixed number of CPU cores; the engine runs one task per core ("slot"),
so tasks never contend for CPU — the homogeneity assumption of
Sec. IV-A a) holds by construction in the simulation.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.task import RuntimeTask


class WorkerNode:
    """A worker with ``slots`` CPU cores, each hosting at most one task."""

    def __init__(self, worker_id: int, slots: int = 4) -> None:
        if slots < 1:
            raise ValueError(f"worker needs >= 1 slot (got {slots})")
        self.worker_id = worker_id
        self.slots = slots
        self._tasks: Dict[int, "RuntimeTask"] = {}

    @property
    def used_slots(self) -> int:
        """Number of occupied slots."""
        return len(self._tasks)

    @property
    def free_slots(self) -> int:
        """Number of free slots."""
        return self.slots - len(self._tasks)

    @property
    def is_empty(self) -> bool:
        """Whether no task is hosted (worker can be released)."""
        return not self._tasks

    def hosted_tasks(self) -> list:
        """The hosted tasks in slot order (fault injection, diagnostics)."""
        return [self._tasks[slot] for slot in sorted(self._tasks)]

    def assign(self, task: "RuntimeTask") -> int:
        """Place ``task`` into the lowest free slot; returns the slot index."""
        if self.free_slots == 0:
            raise RuntimeError(f"worker {self.worker_id} has no free slot")
        for slot in range(self.slots):
            if slot not in self._tasks:
                self._tasks[slot] = task
                return slot
        raise AssertionError("unreachable: free_slots > 0 but no slot found")

    def release(self, task: "RuntimeTask") -> None:
        """Free the slot occupied by ``task``."""
        for slot, hosted in list(self._tasks.items()):
            if hosted is task:
                del self._tasks[slot]
                return
        raise KeyError(f"task {task.task_id} not hosted on worker {self.worker_id}")

    def __repr__(self) -> str:
        return f"WorkerNode(#{self.worker_id}, {self.used_slots}/{self.slots} slots)"
