"""The layer table: every file under ``src/repro/`` belongs to one layer.

Layers carry module names so a profile row, a counter and a micro row
about the same code share a prefix. ``host`` is everything the simulator
does not own: the standard library, numpy, builtins, and the front-end
packages that never run inside ``engine.run`` (CLI, reports, bench,
evaluate, analysis).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

LAYERS = (
    "simulation.kernel",
    "simulation.randomness",
    "engine.task",
    "engine.queues",
    "engine.channel",
    "engine.scheduler",
    "engine.state",
    "qos",
    "core",
    "actuation",
    "obs",
    "workloads",
    "sweep",
    "host",
)

#: whole packages (path relative to src/repro/, trailing slash)
PACKAGE_LAYER = {
    "actuation/": "actuation",
    "analysis/": "host",
    "bench/": "host",
    "core/": "core",
    "evaluate/": "host",
    "experiments/": "host",
    "obs/": "obs",
    "qos/": "qos",
    "sweep/": "sweep",
    "workloads/": "workloads",
}

#: single files of the packages that span several layers
FILE_LAYER = {
    "__init__.py": "host",
    "__main__.py": "host",
    "cli.py": "host",
    # graph construction is what a workload definition is made of
    "builder.py": "workloads",
    "engine/__init__.py": "engine.scheduler",
    "engine/admission.py": "engine.scheduler",
    "engine/engine.py": "engine.scheduler",
    "engine/resources.py": "engine.scheduler",
    "engine/runtime.py": "engine.scheduler",
    "engine/scheduler.py": "engine.scheduler",
    "engine/worker.py": "engine.scheduler",
    "engine/batching.py": "engine.channel",
    "engine/channel.py": "engine.channel",
    "engine/items.py": "engine.task",
    "engine/task.py": "engine.task",
    "engine/queues.py": "engine.queues",
    "engine/state.py": "engine.state",
    # UDF bodies and operator models are workload code run by the task
    "engine/operators.py": "workloads",
    "engine/udf.py": "workloads",
    "graphs/__init__.py": "engine.scheduler",
    "graphs/job_graph.py": "engine.scheduler",
    "graphs/sequences.py": "engine.scheduler",
    # per-item routing onto channels
    "graphs/partitioning.py": "engine.channel",
    "simulation/__init__.py": "simulation.kernel",
    "simulation/events.py": "simulation.kernel",
    "simulation/kernel.py": "simulation.kernel",
    # fault callbacks are events on the shared heap
    "simulation/faults.py": "simulation.kernel",
    "simulation/randomness.py": "simulation.randomness",
}

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_source(relative: str) -> Optional[str]:
    """Layer of a path relative to ``src/repro/`` (None = unmapped)."""
    relative = relative.replace(os.sep, "/")
    if relative in FILE_LAYER:
        return FILE_LAYER[relative]
    for package, layer in PACKAGE_LAYER.items():
        if relative.startswith(package):
            return layer
    return None


def layer_of_frame(filename: str) -> str:
    """Layer of a profiled frame's file.

    The harness's own ``workloads.py`` holds the UDF bodies and payload
    generators the engine calls per item, so it counts as ``workloads``;
    anything outside ``src/repro/`` is ``host``.
    """
    index = filename.rfind(_REPRO_MARKER)
    if index >= 0:
        return layer_of_source(filename[index + len(_REPRO_MARKER):]) or "host"
    if os.path.dirname(filename) == _HERE and os.path.basename(filename) == "workloads.py":
        return "workloads"
    return "host"


def unmapped_sources(repro_root: str) -> List[str]:
    """Python files under ``repro_root`` that the table does not cover."""
    missing = []
    for directory, _dirs, files in os.walk(repro_root):
        for name in files:
            if not name.endswith(".py"):
                continue
            relative = os.path.relpath(os.path.join(directory, name), repro_root)
            if layer_of_source(relative) is None:
                missing.append(relative)
    return sorted(missing)


def stale_entries(repro_root: str) -> List[str]:
    """Table entries whose file or package no longer exists."""
    stale = [f for f in FILE_LAYER if not os.path.isfile(os.path.join(repro_root, f))]
    stale += [p for p in PACKAGE_LAYER if not os.path.isdir(os.path.join(repro_root, p))]
    return sorted(stale)


def attribute(stats: Dict) -> Dict[str, Dict[str, float]]:
    """Fold ``pstats`` rows into per-layer self time and call counts."""
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, calls, self_s, _cum, _callers) in stats.items():
        row = totals[layer_of_frame(filename)]
        row["self_s"] += self_s
        row["calls"] += calls
    whole = sum(row["self_s"] for row in totals.values())
    for row in totals.values():
        row["share"] = row["self_s"] / whole if whole > 0 else 0.0
    return totals


def spans(stats: Dict, limit: int = 250) -> List[Dict[str, object]]:
    """The heaviest profiled functions as span rows (by self time)."""
    rows = []
    for (filename, line, name), (_cc, calls, self_s, cum_s, callers) in stats.items():
        caller = None
        if callers:
            (c_file, c_line, c_name), _ = max(callers.items(), key=lambda kv: kv[1][3])
            caller = f"{_short(c_file)}:{c_line}:{c_name}"
        rows.append({
            "name": f"{_short(filename)}:{line}:{name}",
            "layer": layer_of_frame(filename),
            "calls": calls,
            "self_s": self_s,
            "cum_s": cum_s,
            "caller": caller,
        })
    rows.sort(key=lambda row: (-row["self_s"], row["name"]))
    return rows[:limit]


def _short(filename: str) -> str:
    index = filename.rfind(_REPRO_MARKER)
    if index >= 0:
        return "repro/" + filename[index + len(_REPRO_MARKER):].replace(os.sep, "/")
    if os.path.dirname(filename) == _HERE:
        return "e2e/" + os.path.basename(filename)
    return os.path.basename(filename) if os.sep in filename else filename
