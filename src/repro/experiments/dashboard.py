"""Textual operations dashboards: an engine or a sweep.

:class:`Dashboard` combines the series recorder, the constraint
trackers, the scaler's event log and the assumption diagnostics into one
renderable snapshot — what an operator of the paper's system would
watch. :class:`SweepDashboard` renders the merged ``aggregate.json`` of
a :mod:`repro.sweep` run (per-shard rows plus across-seeds group
statistics). Used by the examples and handy in notebooks/REPLs:

>>> dash = Dashboard(engine, recorder)            # doctest: +SKIP
>>> print(dash.render())                          # doctest: +SKIP
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.engine import DeployedJob, StreamProcessingEngine
from repro.experiments.ascii import series_panel, sparkline
from repro.experiments.recording import SeriesRecorder
from repro.experiments.report import format_table, ms


class Dashboard:
    """Renders one engine/job's current state as plain text."""

    def __init__(
        self,
        engine: StreamProcessingEngine,
        recorder: Optional[SeriesRecorder] = None,
        job: Optional[DeployedJob] = None,
        width: int = 60,
    ) -> None:
        self.engine = engine
        self.recorder = recorder
        self.job = job
        self.width = width

    def _job(self) -> Optional[DeployedJob]:
        if self.job is not None:
            return self.job
        return self.engine._primary() if self.engine.jobs else None

    # ------------------------------------------------------------------
    # sections
    # ------------------------------------------------------------------

    def header(self) -> str:
        """One-line engine status."""
        resources = self.engine.resources
        return (
            f"t={self.engine.now:.0f}s  jobs={len(self.engine.jobs)}  "
            f"tasks={resources.active_tasks}  workers={resources.leased_workers}"
            f"/{resources.pool_size}  task-seconds={resources.task_seconds():.0f}"
        )

    def constraints_table(self) -> str:
        """Per-constraint fulfillment and latest measured latency."""
        job = self._job()
        if job is None or not job.trackers:
            return "(no constraints)"
        rows = []
        for tracker in job.trackers:
            latest = tracker.history[-1] if tracker.history else None
            rows.append(
                [
                    tracker.constraint.name,
                    f"{tracker.constraint.bound * 1000:.0f} ms",
                    ms(latest[1]) if latest else None,
                    "VIOLATED" if latest and latest[2] else "ok",
                    f"{tracker.fulfillment_ratio * 100:.1f}%",
                ]
            )
        return format_table(
            ["constraint", "bound", "measured (ms)", "now", "fulfilled"], rows
        )

    def parallelism_table(self) -> str:
        """Current and bounded parallelism per vertex."""
        job = self._job()
        if job is None:
            return "(no job)"
        rows = []
        for name, rv in job.runtime.vertices.items():
            jv = rv.job_vertex
            utilization = None
            if job.last_summary is not None:
                vs = job.last_summary.vertex(name)
                if vs is not None:
                    utilization = f"{vs.utilization:.2f}"
            rows.append(
                [
                    name,
                    rv.parallelism,
                    f"[{jv.min_parallelism}, {jv.max_parallelism}]",
                    "elastic" if jv.elastic else "fixed",
                    utilization,
                ]
            )
        return format_table(["vertex", "p", "bounds", "kind", "rho"], rows)

    def series_section(self) -> str:
        """Sparkline panel from the recorder (if attached)."""
        if self.recorder is None or not self.recorder.rows:
            return "(no recorder attached)"
        rows = self.recorder.rows
        named: List[Tuple[str, list]] = [
            ("effective rate", [r.effective_rate for r in rows]),
            ("cpu utilization", [r.cpu_utilization for r in rows]),
        ]
        job = self._job()
        if job is not None:
            for name, rv in job.runtime.vertices.items():
                if rv.job_vertex.elastic:
                    named.append((f"p({name})", [r.parallelism.get(name) for r in rows]))
        for feed in sorted({k for r in rows for k in r.latency_mean}):
            named.append(
                (f"{feed} mean (ms)", [ms(r.latency_mean.get(feed)) for r in rows])
            )
        return series_panel("series:", named, width=self.width)

    def events_section(self, last: int = 5) -> str:
        """The most recent scaling actions."""
        job = self._job()
        if job is None or job.scaler is None or not job.scaler.events:
            return "(no scaling events)"
        lines = ["recent scaling actions:"]
        for event in job.scaler.events[-last:]:
            changes = ", ".join(
                f"{vertex}{delta:+d}" for vertex, delta in event.applied.items()
            ) or "none applied"
            lines.append(f"  t={event.time:7.1f}s  [{event.reason}]  {changes}")
        return "\n".join(lines)

    def actuation_section(self) -> Optional[str]:
        """Reconciliation state (None when actuation supervision is off).

        Returning None keeps the rendered dashboard byte-identical to
        pre-actuation output for unsupervised jobs.
        """
        job = self._job()
        reconciler = getattr(job, "reconciler", None) if job is not None else None
        if reconciler is None:
            return None
        lines = [
            "actuation:",
            f"  requests={reconciler.requests}  applied={reconciler.applied}  "
            f"retries={reconciler.retries}  give-ups={reconciler.give_ups}  "
            f"escalations={reconciler.escalations}",
            f"  in-flight={len(reconciler.in_flight)}  "
            f"convergence-lag={reconciler.convergence_lag()}",
        ]
        for vertex in reconciler.in_flight_vertices():
            req = reconciler.in_flight[vertex]
            lines.append(
                f"  pending {vertex}: {req.p_before}->{req.target} "
                f"(attempt {req.attempt}, issued t={req.issued_at:.1f}s)"
            )
        return "\n".join(lines)

    def decisions_section(self, last: int = 6) -> str:
        """The most recent structured scaler decisions (trace records)."""
        job = self._job()
        trace = getattr(job, "trace", None) if job is not None else None
        if trace is None:
            return "(decision tracing off)"
        if not len(trace):
            return "(no scaler decisions yet)"
        lines = [f"last scaler decisions ({min(last, len(trace))} of {len(trace)}):"]
        for record in trace.last(last):
            target = ""
            if record.p_target is not None:
                before = record.p_before if record.p_before is not None else "?"
                target = f"  p {before}->{record.p_target}"
                if record.p_applied:
                    target += f" ({record.p_applied:+d})"
            lines.append(
                f"  t={record.time:7.1f}s  [{record.branch}]  "
                f"{record.constraint}/{record.vertex or '*'}{target}"
            )
        return "\n".join(lines)

    def diagnostics_section(self) -> str:
        """Assumption findings (hot spots / load skew), if any."""
        job = self._job()
        if job is None:
            return ""
        findings = job.check_assumptions()
        if not findings:
            return "assumptions: ok (no hot spots, no load skew)"
        lines = ["assumption findings:"]
        for finding in findings[:8]:
            lines.append(f"  ! {finding.message}")
        if len(findings) > 8:
            lines.append(f"  ... and {len(findings) - 8} more")
        return "\n".join(lines)

    def render(self) -> str:
        """The full dashboard."""
        sections = [
            self.header(),
            "",
            self.constraints_table(),
            "",
            self.parallelism_table(),
            "",
            self.series_section(),
            "",
            self.events_section(),
        ]
        actuation = self.actuation_section()
        if actuation is not None:
            sections += ["", actuation]
        sections += [
            "",
            self.decisions_section(),
            "",
            self.diagnostics_section(),
        ]
        return "\n".join(section for section in sections if section is not None)


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

