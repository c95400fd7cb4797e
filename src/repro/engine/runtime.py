"""The runtime graph: parallelized instantiation of the job graph.

``G = (V, E)`` (paper Sec. II-A2): each :class:`RuntimeVertex` tracks the
live task set of one job vertex, and the graph keeps a per-job-edge
registry of live channels. Draining tasks still process residual items
but no longer count towards the vertex's degree of parallelism.
"""

from __future__ import annotations

from typing import Dict, List

from repro.engine.channel import RuntimeChannel
from repro.engine.task import RUNNING, RuntimeTask
from repro.graphs.job_graph import JobGraph, JobVertex


class RuntimeVertex:
    """Live task set of one job vertex."""

    def __init__(self, job_vertex: JobVertex) -> None:
        self.job_vertex = job_vertex
        self.name = job_vertex.name
        self.tasks: List[RuntimeTask] = []
        #: scale-ups announced but not yet started (startup delay)
        self.pending_additions = 0
        #: lifetime count of crashed (fault-injected) tasks
        self.crashes = 0
        #: lifetime count of tasks force-stopped by cluster arbitration
        self.preemptions = 0
        self._next_subtask_index = 0

    def next_subtask_index(self) -> int:
        """Monotonically increasing subtask index for new tasks."""
        index = self._next_subtask_index
        self._next_subtask_index += 1
        return index

    def active_tasks(self) -> List[RuntimeTask]:
        """Tasks that count towards the degree of parallelism."""
        return [t for t in self.tasks if t.state == RUNNING or t.state == "created"]

    @property
    def parallelism(self) -> int:
        """Current effective degree of parallelism (excludes draining)."""
        return len(self.active_tasks())

    @property
    def target_parallelism(self) -> int:
        """Parallelism including announced-but-not-started tasks."""
        return self.parallelism + self.pending_additions

    def __repr__(self) -> str:
        return f"RuntimeVertex({self.name!r}, p={self.parallelism})"


class RuntimeGraph:
    """Tracks the live tasks and channels of a deployed job."""

    def __init__(self, job_graph: JobGraph) -> None:
        self.job_graph = job_graph
        self.vertices: Dict[str, RuntimeVertex] = {
            name: RuntimeVertex(v) for name, v in job_graph.vertices.items()
        }
        #: live channels per job edge name
        self.edge_channels: Dict[str, List[RuntimeChannel]] = {
            e.name: [] for e in job_graph.edges
        }

    def vertex(self, name: str) -> RuntimeVertex:
        """Runtime vertex by job-vertex name."""
        return self.vertices[name]

    def parallelism(self, name: str) -> int:
        """Effective degree of parallelism of a job vertex."""
        return self.vertices[name].parallelism

    def all_tasks(self) -> List[RuntimeTask]:
        """Every live (running or draining) task."""
        tasks: List[RuntimeTask] = []
        for vertex in self.vertices.values():
            tasks.extend(vertex.tasks)
        return tasks

    def register_channel(self, channel: RuntimeChannel) -> None:
        """Add a channel to the per-edge registry."""
        self.edge_channels.setdefault(channel.edge_name, []).append(channel)

    def unregister_channel(self, channel: RuntimeChannel) -> None:
        """Remove a closed channel from the registry."""
        channels = self.edge_channels.get(channel.edge_name)
        if channels is not None and channel in channels:
            channels.remove(channel)

    def __repr__(self) -> str:
        parts = ", ".join(f"{v.name}:{v.parallelism}" for v in self.vertices.values())
        return f"RuntimeGraph({parts})"
