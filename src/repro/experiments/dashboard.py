"""Textual sweep dashboard.

:class:`SweepDashboard` renders the merged ``aggregate.json`` of a
:mod:`repro.sweep` run (per-shard rows plus across-seeds group
statistics); ``repro sweep`` prints it when the sweep finishes.
"""

from __future__ import annotations

from repro.experiments.ascii import sparkline
from repro.experiments.report import format_table, ms


class SweepDashboard:
    """Renders a merged sweep aggregate (see :mod:`repro.sweep.report`)."""

    def __init__(self, aggregate: dict, width: int = 60) -> None:
        self.aggregate = aggregate
        self.width = width

    def header(self) -> str:
        """One-line sweep identity."""
        grid = self.aggregate.get("grid") or {}
        shards = self.aggregate.get("shards") or []
        return (
            f"sweep {grid.get('name', '?')!r}: {len(shards)}/"
            f"{grid.get('shards', len(shards))} shards merged, "
            f"duration {grid.get('duration', 0):g}s per shard"
        )

    def shards_table(self) -> str:
        """Per-shard deterministic results, ordered by shard key."""
        shards = self.aggregate.get("shards") or []
        if not shards:
            return "(no completed shards)"
        rows = []
        for shard in shards:
            constraints = shard.get("constraints") or []
            fulfillment = constraints[0]["fulfillment_ratio"] if constraints else None
            feeds = shard["series"].get("feeds") or {}
            e2e = next(iter(sorted(feeds.items())), (None, {}))[1]
            actuation = shard.get("actuation")
            rows.append([
                shard["key"],
                shard["final_parallelism"].get("worker"),
                f"{fulfillment * 100:.1f}%" if fulfillment is not None else None,
                ms(e2e.get("mean_latency")),
                (
                    f"{rho:.2f}"
                    if (rho := shard["series"].get("mean_cpu_utilization"))
                    is not None
                    else None
                ),
                actuation["requests"] if actuation else None,
            ])
        return format_table(
            ["shard", "p(worker)", "fulfilled", "e2e mean (ms)", "rho", "actuations"],
            rows,
        )

    def summary_table(self) -> str:
        """Across-seeds group statistics."""
        summary = self.aggregate.get("summary") or {}
        if not summary:
            return "(no summary)"
        rows = []
        for key in sorted(summary):
            group = summary[key]
            fulfillment = group.get("mean_fulfillment")
            rows.append([
                key,
                len(group.get("seeds", [])),
                f"{fulfillment * 100:.1f}%" if fulfillment is not None else None,
                group.get("violations"),
                group.get("mean_worker_parallelism"),
                group.get("mean_cpu_utilization"),
            ])
        return format_table(
            ["group", "seeds", "mean fulfilled", "violations", "mean p(worker)",
             "mean rho"],
            rows,
            title="across seeds:",
        )

    def fulfillment_sparkline(self) -> str:
        """Fulfillment ratio across shards, in merge (key) order."""
        shards = self.aggregate.get("shards") or []
        values = []
        for shard in shards:
            constraints = shard.get("constraints") or []
            values.append(constraints[0]["fulfillment_ratio"] if constraints else None)
        if not values:
            return ""
        return "fulfillment by shard: " + sparkline(values, width=self.width)

    def render(self) -> str:
        """The full sweep dashboard."""
        sections = [
            self.header(),
            "",
            self.shards_table(),
            "",
            self.summary_table(),
        ]
        spark = self.fulfillment_sparkline()
        if spark:
            sections += ["", spark]
        return "\n".join(sections)

