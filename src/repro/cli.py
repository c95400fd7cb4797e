"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment {fig3,fig5,fig6,fig8,sensitivity,validation,policies,ablations,all}``
    Run a paper-reproduction experiment and print its report
    (``--quick`` for the reduced variant, ``--csv DIR`` to write each
    figure's committed CSV artefact into DIR).
``run``
    Run a registered scenario (``--scenario``, default the fault-free
    ``steady`` pipeline) with observability on and export
    ``manifest.json`` / ``metrics.jsonl`` / ``trace.jsonl``. Like
    ``chaos`` and sweep shards it only translates its flags into a
    :class:`~repro.workloads.scenario.ScenarioSpec`.
``chaos``
    Run a deterministic fault-injection scenario against an elastic
    pipeline (task crash, worker loss, measurement dropout, service
    spike) and report how the scaler degraded gracefully.
``sweep``
    Expand a declarative grid (seeds × rates × bounds × workloads ×
    actuation × policies) into shards and run them across a
    crash-isolated worker process pool with checkpointed resume
    (``--resume``) and a deterministic byte-identical merged aggregate;
    ``--tournament`` runs the built-in policy-tournament grid and
    repeatable ``--policy`` flags form the policy axis.
``trace generate`` / ``trace info``
    Synthesize or inspect rate traces (the stand-in for the paper's
    two-week Twitter replay).
``trace show`` / ``trace --check``
    Inspect or schema-validate an exported observability directory
    (scaler decision records and the run manifest).
``bench``
    Run the pinned-seed micro/macro benchmark suite and write
    ``BENCH_core.json`` (``--quick`` for the CI smoke variant,
    ``--check BASELINE`` to fail on >30% speedup regression).
``compare``
    Evaluate run(s) against a committed baseline under a tolerance spec
    (see :mod:`repro.evaluate`): exit 0 when every metric statistic is
    in tolerance, 1 otherwise (naming the offending metrics);
    ``--suggest`` derives the empirical tolerance spec that would admit
    the given runs, ``--write-baseline`` pins a new baseline file, and
    ``--scoreboard`` renders the per-policy tournament scoreboard
    (violation rate / task hours / reaction time) baseline-free.
``info``
    Show version and the experiment inventory.
"""

from __future__ import annotations

import argparse
import contextlib
import os
from typing import List, Optional

import repro
from repro.experiments.report import FIGURES, run_figure
from repro.workloads.traces import generate_diurnal_trace, load_trace, save_trace


def _policy_spec(text: str) -> str:
    """argparse type for ``--policy NAME[:key=val,...]`` flags.

    The one policy-spec parser of the CLI: every command resolves the
    flag through :func:`repro.core.policy.parse_policy_spec`, so the
    accepted syntax (and the unknown-name or bad-knob error, exit 2) is
    identical across ``run``, ``chaos`` and ``sweep``.
    """
    from repro.core.policy import parse_policy_spec

    try:
        return parse_policy_spec(text).validate().canonical()
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_policy_flag(parser: argparse.ArgumentParser, repeatable: bool = False) -> None:
    """Attach the shared ``--policy NAME[:key=val,...]`` flag."""
    if repeatable:
        parser.add_argument(
            "--policy", metavar="SPEC", type=_policy_spec, action="append",
            default=None, dest="policies",
            help="scaling policy spec NAME[:key=val,...]; repeat to sweep "
                 "a policy axis (default: the grid's, or scale-reactively)")
    else:
        parser.add_argument(
            "--policy", metavar="SPEC", type=_policy_spec, default=None,
            help="scaling policy spec NAME[:key=val,...] from the policy "
                 "registry (default: scale-reactively)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    from repro.bench.core import add_arguments as add_bench_arguments
    from repro.workloads.scenario import SINGLE_JOB_WORKLOADS, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Elastic Stream Processing with Latency Guarantees' (ICDCS 2015)",
    )
    sub = parser.add_subparsers(dest="command")

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("name", choices=tuple(FIGURES) + ("all",))
    one_scale = [name for name, figure in FIGURES.items() if figure.params is None]
    exp.add_argument("--quick", action="store_true",
                     help=f"reduced-scale variant ({', '.join(one_scale[:-1])} and "
                          f"{one_scale[-1]} have one scale: the full run)")
    exp.add_argument("--csv", metavar="DIR",
                     help="write each figure's CSV artefact into DIR under its "
                          "results/ name (fig3_series.csv, fig5_surface.csv, "
                          "policies.csv, ...)")

    run = sub.add_parser("run", help="fault-free elastic run with observability export")
    run.add_argument("--duration", type=float, default=None,
                     help="virtual seconds to run (default 120; 240 with "
                          "--shared-cluster)")
    run.add_argument("--rate", type=float, default=None,
                     help="source rate, items/s (default 400; 1400 per-job "
                          "peak with --shared-cluster)")
    run.add_argument("--bound", type=float, default=None,
                     help="latency bound, s (default 0.030; 0.060 with "
                          "--shared-cluster)")
    run.add_argument("--seed", type=int, default=None,
                     help="engine seed (default 7; 11 with --shared-cluster)")
    run.add_argument("--shared-cluster", action="store_true",
                     help="run the canonical two-job shared-cluster scenario "
                          "instead: anti-phased load peaks on an "
                          "under-provisioned pool, weighted fair-share "
                          "admission with denials and preemption, per-job "
                          "fulfillment and Jain's fairness in the report")
    run.add_argument("--workers", type=int, default=3, metavar="N",
                     help="with --shared-cluster: pool size in workers")
    run.add_argument("--slots-per-worker", type=int, default=4, metavar="S",
                     help="with --shared-cluster: slots per worker")
    run.add_argument("--obs-dir", metavar="DIR", default="obs-run",
                     help="export directory for manifest/metrics/trace")
    run.add_argument("--scenario", choices=SINGLE_JOB_WORKLOADS, default="steady",
                     help="which registered workload to run")
    _add_policy_flag(run)

    chaos = sub.add_parser("chaos", help="run a deterministic fault-injection scenario")
    chaos.add_argument("--duration", type=float, default=120.0, help="virtual seconds to run")
    chaos.add_argument("--rate", type=float, default=400.0, help="source rate (items/s)")
    chaos.add_argument("--bound", type=float, default=0.030, help="latency bound (s)")
    chaos.add_argument("--seed", type=int, default=7, help="engine seed")
    chaos.add_argument("--fault-seed", type=int, default=0, help="victim-selection seed")
    chaos.add_argument("--crash-at", type=float, default=30.0,
                       help="crash one worker task at this time (negative = off)")
    chaos.add_argument("--restart-delay", type=float, default=2.0,
                       help="replacement-task delay after a crash")
    chaos.add_argument("--dropout-at", type=float, default=30.0,
                       help="start a QoS measurement dropout (negative = off)")
    chaos.add_argument("--dropout-duration", type=float, default=20.0)
    chaos.add_argument("--spike-at", type=float, default=-1.0,
                       help="service-time spike start (negative = off)")
    chaos.add_argument("--spike-factor", type=float, default=3.0)
    chaos.add_argument("--spike-duration", type=float, default=10.0)
    chaos.add_argument("--worker-loss-at", type=float, default=-1.0,
                       help="lose one leased worker at this time (negative = off)")
    chaos.add_argument("--actuation", action="store_true",
                       help="supervised actuation: rescaling becomes asynchronous, "
                            "failure-prone and retried (see repro.actuation)")
    chaos.add_argument("--actuation-fail-at", type=float, default=5.0,
                       help="with --actuation: start a window in which every "
                            "actuation attempt fails (negative = off)")
    chaos.add_argument("--actuation-fail-duration", type=float, default=20.0,
                       help="length of the actuation-failure window (s)")
    chaos.add_argument("--stateful", action="store_true",
                       help="make the worker stage stateful (key-partitioned "
                            "operator state): rescales become multi-phase state "
                            "migrations, crashes trigger checkpoint-restore "
                            "recovery (implies --actuation)")
    chaos.add_argument("--migration-fail-at", type=float, default=-1.0,
                       help="start a window in which state migrations fail "
                            "mid-transfer and roll back (negative = off; "
                            "implies --stateful and --actuation)")
    chaos.add_argument("--migration-fail-duration", type=float, default=15.0,
                       help="length of the migration-failure window (s)")
    chaos.add_argument("--checkpoint-interval", type=float, default=15.0,
                       help="periodic checkpoint interval for stateful vertices "
                            "(s); shorter = more snapshot pauses, less replay "
                            "after a crash")
    chaos.add_argument("--obs-dir", metavar="DIR", default=None,
                       help="export manifest/metrics/trace into DIR after the run")
    chaos.add_argument("--pin-wall-time", action="store_true",
                       help="write wall_time_s=0.0 into the exported manifest so "
                            "same-seed runs diff byte-for-byte")
    _add_policy_flag(chaos)

    sweep = sub.add_parser(
        "sweep", help="run a seed/workload/knob grid across worker processes"
    )
    sweep.add_argument("--grid", metavar="FILE", default=None,
                       help="JSON grid file (see repro.sweep.SweepGrid)")
    sweep.add_argument("--quick", action="store_true",
                       help="the built-in 8-shard CI smoke grid")
    sweep.add_argument("--seeds", metavar="CSV", default=None,
                       help="comma-separated engine seeds (overrides the grid)")
    sweep.add_argument("--rates", metavar="CSV", default=None,
                       help="comma-separated source rates (items/s)")
    sweep.add_argument("--bounds", metavar="CSV", default=None,
                       help="comma-separated latency bounds (s)")
    sweep.add_argument("--workloads", metavar="CSV", default=None,
                       help="comma-separated workload variants "
                            f"({', '.join(WORKLOADS)})")
    sweep.add_argument("--actuation", choices=("off", "on", "both"), default=None,
                       help="supervised-actuation axis (default: grid/off)")
    sweep.add_argument("--duration", type=float, default=None,
                       help="virtual seconds per shard")
    sweep.add_argument("--workers", type=int, default=2,
                       help="concurrent worker processes (1 = serial)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip shards with a valid checkpoint in --out")
    sweep.add_argument("--retries", type=int, default=2,
                       help="per-shard retries after a worker crash")
    sweep.add_argument("--out", metavar="DIR", default="sweep-out",
                       help="checkpoint/aggregate directory")
    _add_policy_flag(sweep, repeatable=True)
    sweep.add_argument("--tournament", action="store_true",
                       help="the built-in 10-shard policy-tournament grid "
                            "(5 policies x 2 seeds, see SweepGrid.tournament)")
    sweep.add_argument("--tournament-stateful", action="store_true",
                       help="the stateful policy tournament: same race on a "
                            "stateful worker, so rescales pay migration "
                            "pauses (see SweepGrid.tournament_stateful)")
    sweep.add_argument("--shared-cluster", action="store_true",
                       help="the built-in 2-shard shared-cluster grid: two "
                            "jobs contending for one pool under fair-share "
                            "admission (see SweepGrid.shared_cluster)")

    trace = sub.add_parser("trace", help="rate traces and scaler decision traces")
    trace.add_argument("--check", action="store_true",
                       help="schema-validate trace.jsonl/manifest.json in --obs-dir")
    trace.add_argument("--obs-dir", metavar="DIR", default=".",
                       help="observability export directory for --check (default: .)")
    trace_sub = trace.add_subparsers(dest="trace_command")
    gen = trace_sub.add_parser("generate", help="synthesize a diurnal rate trace")
    gen.add_argument("--days", type=int, default=14)
    gen.add_argument("--base-rate", type=float, default=3000.0)
    gen.add_argument("--amplitude", type=float, default=0.6)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, metavar="PATH")
    info = trace_sub.add_parser("info", help="summarize a trace CSV")
    info.add_argument("path")
    show = trace_sub.add_parser("show", help="summarize an exported decision trace")
    show.add_argument("dir", nargs="?", default=".",
                      help="observability export directory (default: .)")
    show.add_argument("--last", type=int, default=10,
                      help="number of most recent decision records to print")

    bench = sub.add_parser("bench", help="run the benchmark suite, write BENCH_core.json")
    add_bench_arguments(bench)

    comp = sub.add_parser(
        "compare", help="evaluate runs against a committed baseline"
    )
    comp.add_argument("runs", nargs="+", metavar="RUN",
                      help="sweep output dir, aggregate.json or baseline-format "
                           "file")
    comp.add_argument("--baseline", metavar="FILE", default=None,
                      help="baseline file to gate against "
                           "(default: baselines/twitter.json, unless "
                           "--scoreboard runs baseline-free)")
    comp.add_argument("--scoreboard", action="store_true",
                      help="render the per-policy tournament scoreboard "
                           "(violation rate, task hours, reaction time) "
                           "from the first RUN's shards")
    comp.add_argument("--tolerance", metavar="FILE", default=None,
                      help="tolerance spec file overriding the baseline's own")
    comp.add_argument("--suggest", action="store_true",
                      help="derive the empirical tolerance spec that would "
                           "admit every given run (from N same-config runs)")
    comp.add_argument("--json", metavar="PATH", default=None,
                      help="write the machine-readable comparison JSON")
    comp.add_argument("--html", metavar="PATH", default=None,
                      help="write the standalone HTML report")
    comp.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="pin the first RUN as a new baseline file "
                           "(bootstraps when --baseline does not exist yet)")

    sub.add_parser("info", help="version and experiment inventory")
    return parser


def _format_decision(record) -> str:
    target = ""
    if record.p_target is not None:
        before = record.p_before if record.p_before is not None else "?"
        target = f"  p {before}->{record.p_target}"
        if record.p_applied:
            target += f" (applied {record.p_applied:+d})"
    waits = ""
    if record.measured_wait is not None and record.predicted_wait is not None:
        waits = (f"  wait {record.measured_wait * 1000:.2f}ms"
                 f"->{record.predicted_wait * 1000:.2f}ms")
    detail = f"  [{record.detail}]" if record.detail else ""
    return (f"t={record.time:7.2f}  {record.branch:<19s} "
            f"{record.constraint:<12s} {record.vertex or '*':<10s}"
            f"{target}{waits}{detail}")


def _print_last_decisions(trace, last: int) -> None:
    print(f"last scaler decisions ({min(last, len(trace))} of {len(trace)} records):")
    for record in trace.last(last):
        print("  " + _format_decision(record))


#: ``repro run`` defaults, keyed by ``--shared-cluster``
_RUN_DEFAULTS = {
    False: {"duration": 120.0, "rate": 400.0, "bound": 0.030, "seed": 7},
    True: {"duration": 240.0, "rate": 1400.0, "bound": 0.060, "seed": 11},
}


def run_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` a ``repro run`` invocation describes."""
    from repro.core.policy import DEFAULT_POLICY
    from repro.workloads.scenario import ScenarioSpec

    axes = {
        key: getattr(args, key) if getattr(args, key) is not None else default
        for key, default in _RUN_DEFAULTS[args.shared_cluster].items()
    }
    policy = args.policy or DEFAULT_POLICY
    if args.shared_cluster:
        return ScenarioSpec(
            workload="multi_job", policy=policy, **axes,
            knobs={
                "worker_pool": args.workers,
                "slots_per_worker": args.slots_per_worker,
            },
        )
    return ScenarioSpec(workload=args.scenario, policy=policy, name="obs-run", **axes)


def chaos_spec(args: argparse.Namespace):
    """The :class:`ScenarioSpec` a ``repro chaos`` invocation describes."""
    from repro.core.policy import DEFAULT_POLICY
    from repro.simulation.faults import (
        ActuationFailure,
        MeasurementDropout,
        MigrationFailure,
        ServiceSpike,
        TaskCrash,
        WorkerLoss,
    )
    from repro.workloads.scenario import ScenarioSpec

    stateful = args.stateful or args.migration_fail_at >= 0
    # one row per fault flag: (start time, spec class, its other fields);
    # a negative start time switches the fault off
    flags = [
        (args.crash_at, TaskCrash,
         {"vertex": "worker", "restart_delay": args.restart_delay}),
        (args.dropout_at, MeasurementDropout, {"duration": args.dropout_duration}),
        (args.spike_at, ServiceSpike,
         {"vertex": "worker", "factor": args.spike_factor,
          "duration": args.spike_duration}),
        (args.worker_loss_at, WorkerLoss, {"restart_delay": args.restart_delay}),
        (args.actuation_fail_at if args.actuation else -1.0, ActuationFailure,
         {"duration": args.actuation_fail_duration, "vertex": "worker"}),
        (args.migration_fail_at, MigrationFailure,
         {"duration": args.migration_fail_duration, "vertex": "worker"}),
    ]
    return ScenarioSpec(
        seed=args.seed,
        rate=args.rate,
        bound=args.bound,
        # Stateful runs need the reconciler: the migration protocol is
        # its supervised-actuation path.
        actuation=args.actuation or stateful,
        duration=args.duration,
        policy=args.policy or DEFAULT_POLICY,
        name="chaos",
        faults=tuple(cls(at=at, **fields) for at, cls, fields in flags if at >= 0),
        fault_seed=args.fault_seed,
        knobs={
            "constraint_name": None,
            "stateful": stateful,
            "checkpoint_interval": args.checkpoint_interval,
        },
    )


def _run_plain(args: argparse.Namespace, spec) -> int:
    from repro.workloads.scenario import build

    engine, (job,), _ = build(spec, export_dir=args.obs_dir, pin_wall_time=False)
    engine.run(spec.duration)

    policy_note = f", policy={args.policy}" if args.policy is not None else ""
    print(f"run: {spec.duration:.0f}s, rate={spec.rate:.0f}/s, "
          f"bound={spec.bound * 1000:.0f}ms, seed={spec.seed}{policy_note}")
    print(f"final parallelism: "
          f"{ {name: rv.parallelism for name, rv in job.runtime.vertices.items()} }")
    scaler = job.scaler
    if scaler is not None:
        print(f"scaler: {scaler.rounds} rounds, {len(scaler.events)} activations")
    if job.trace is not None and len(job.trace):
        print()
        _print_last_decisions(job.trace, 6)
    paths = engine.export_run()
    print()
    print("exported:")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:<9s} {path}")
    return 0


def _run_shared(parser: argparse.ArgumentParser, spec) -> int:
    """Two jobs on one under-provisioned pool: the admission scenario."""
    from repro.engine.resources import InsufficientResourcesError
    from repro.workloads.multi_job import collect_shared_cluster_result
    from repro.workloads.scenario import build

    try:
        engine, jobs, _ = build(spec)
    except (ValueError, InsufficientResourcesError) as exc:
        # an empty pool (EngineConfig refuses it) or one too small for
        # the two jobs' initial tasks (deployment runs out of slots)
        parser.error(f"cannot deploy the shared cluster: {exc}")
    engine.run(spec.duration)
    # collect before stop(): teardown scales every vertex to zero, which
    # would wipe the final_parallelism snapshot out of the result
    result = collect_shared_cluster_result(engine, jobs)
    engine.stop()

    knobs = spec.resolved()
    print(f"shared cluster: {knobs['worker_pool']} workers x "
          f"{knobs['slots_per_worker']} slots, {engine.now:.0f}s virtual, "
          f"seed={spec.seed}")
    for job in result["jobs"]:
        account = job["account"]
        fulfillment = job["fulfillment"]
        shown = "-" if fulfillment is None else f"{fulfillment:.3f}"
        print(f"  job {job['job']:<8s} fulfillment={shown} "
              f"violations={job['violations']} weight={account['weight']:g} "
              f"held={account['held']} denials={account['denials']} "
              f"preempted={account['preemptions_suffered']}")
    fairness = result["fairness"]
    cluster = result["cluster"]
    shown = "-" if fairness is None else f"{fairness:.4f}"
    print(f"fairness (Jain, per-job fulfillment): {shown}")
    print(f"cluster: {cluster['total_slots']} slots, "
          f"{cluster['admission_denials']} admission denials, "
          f"{cluster['preempted_tasks']} preempted tasks, "
          f"{cluster['task_hours']:.3f} task-hours")
    return 0


def _trace_check(obs_dir: str) -> int:
    from repro.obs.manifest import check_export

    checked, errors = check_export(obs_dir)
    if errors:
        print(f"trace check FAILED ({len(errors)} errors):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"trace check OK: {', '.join(checked)} are schema-valid")
    return 0


def _trace_show(directory: str, last: int) -> int:
    from repro.obs.manifest import export_paths, read_export

    try:
        trace, manifest = read_export(directory)
    except ValueError as exc:
        print(exc)
        return 2
    if manifest is not None:
        scaling = manifest.get("scaling") or {}
        print(f"job {manifest['job']!r}: seed={manifest['seed']}, "
              f"graph={manifest['graph_hash']}, "
              f"virtual={manifest['virtual_time_s']:.0f}s")
        print(f"final parallelism: {manifest['final_parallelism']}")
        if scaling:
            print(f"scaling: {scaling.get('rounds', 0)} rounds, "
                  f"{scaling.get('activations', 0)} activations, "
                  f"{scaling.get('skipped_stale', 0)} stale skips, "
                  f"{scaling.get('suppressed_scale_downs', 0)} cooldown suppressions")
        print()
    if trace is None:
        print(f"no {export_paths(directory)['trace']}")
        return 1
    branches = ", ".join(f"{k}={v}" for k, v in sorted(trace.branches().items()))
    print(f"{len(trace)} decision records over {trace.rounds} rounds ({branches})")
    print()
    _print_last_decisions(trace, last)
    return 0


def sweep_axes(args: argparse.Namespace) -> dict:
    """The axes a ``repro sweep`` line overrides, for ``SweepGrid.select``."""
    def listed(text, convert):
        return None if text is None else [
            convert(part.strip()) for part in text.split(",") if part.strip()]

    return {
        "seeds": listed(args.seeds, int),
        "rates": listed(args.rates, float),
        "bounds": listed(args.bounds, float),
        "workloads": listed(args.workloads, str),
        "actuation": {"off": [False], "on": [True], "both": [False, True]}.get(args.actuation),
        "duration": args.duration,
        "policies": args.policies,
    }


def _run_sweep(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    from repro.experiments.dashboard import SweepDashboard
    from repro.sweep import SweepError, SweepGrid, run_sweep
    from repro.sweep.grid import PresetConflict

    try:
        grid = SweepGrid.select(vars(args), sweep_axes(args))
    except PresetConflict as exc:
        parser.error(str(exc))
    except (OSError, TypeError, ValueError) as exc:
        print(f"cannot build the sweep grid: {exc}")
        return 2
    print(f"sweep {grid.name!r}: {len(grid)} shards, "
          f"{args.workers} workers, out={args.out}"
          + (" (resume)" if args.resume else ""))
    try:
        result = run_sweep(
            grid, args.out,
            workers=args.workers,
            resume=args.resume,
            max_retries=args.retries,
            progress=lambda message: print(f"  {message}"),
        )
    except SweepError as exc:
        print(f"sweep failed to run: {exc}")
        return 2
    print()
    print(SweepDashboard(result.aggregate).render())
    print()
    print(result.stats.describe())
    print(f"aggregate: {result.aggregate_path}")
    return 1 if result.stats.failed else 0


def _run_compare(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.evaluate import (
        Baseline,
        Candidate,
        ToleranceSpec,
        build_scoreboard,
        compare_runs,
        load_run,
        render_comparison,
        render_scoreboard,
        suggest_from_runs,
        write_comparison_html,
    )
    from repro.experiments.report import write_json

    tolerance = None
    if args.tolerance is not None:
        try:
            tolerance = ToleranceSpec.read(args.tolerance)
        except (OSError, ValueError) as exc:
            print(f"cannot load tolerance spec {args.tolerance!r}: {exc}")
            return 2

    # --scoreboard with no explicit --baseline runs baseline-free; every
    # other invocation gates against the committed default baseline.
    baseline_path = args.baseline
    if baseline_path is None and not args.scoreboard:
        baseline_path = "baselines/twitter.json"
    baseline = None
    if baseline_path is not None and (
        os.path.exists(baseline_path) or args.write_baseline is None
    ):
        try:
            baseline = Baseline.read(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"cannot load baseline {baseline_path!r}: {exc}")
            return 2

    runs = []
    for path in args.runs:
        try:
            runs.append(load_run(path))
        except (OSError, ValueError) as exc:
            print(f"cannot load run {path!r}: {exc}")
            return 2
    candidates = [Candidate(stats.name, stats.metrics) for _, stats, _ in runs]
    name, first, aggregate = runs[0]

    scoreboard = None
    if args.scoreboard:
        try:
            scoreboard = build_scoreboard(aggregate or {})
        except ValueError as exc:
            print(f"cannot build scoreboard from {name!r}: {exc}")
            return 2
        print(render_scoreboard(scoreboard, run=name))
        if baseline is not None:
            print()

    failed = False
    suggested = None
    if baseline is not None:
        comparison = compare_runs(baseline, candidates, tolerance=tolerance)
        if args.suggest:
            _, suggested = suggest_from_runs(baseline, candidates)
        print(render_comparison(comparison))
        report = comparison.to_dict(suggest=args.suggest)
        if suggested is not None:
            report["suggested_tolerance"] = suggested
        if scoreboard is not None:
            report["scoreboard"] = scoreboard
        if args.json is not None:
            print(f"comparison: {write_json(args.json, report)}")
        if args.html is not None:
            print(f"report: {write_comparison_html(comparison, args.html)}")
        if suggested is not None:
            print()
            print("suggested tolerance spec (admits every compared run):")
            print(json.dumps(suggested, indent=2, sort_keys=True))
        failed = not comparison.passed
        if failed:
            print()
            print("out-of-tolerance metrics: "
                  + ", ".join(comparison.failed_metrics()))
    elif scoreboard is not None and args.json is not None:
        print(f"scoreboard: {write_json(args.json, scoreboard)}")
    if args.write_baseline is not None:
        pin_tolerance = None if baseline is None else baseline.tolerance.describe()
        if tolerance is not None:
            pin_tolerance = tolerance.describe()
        elif args.suggest:
            # the suggestion widens the default spec, not a RUN file's own
            _, pin_tolerance = suggest_from_runs(Baseline(first.name, first.metrics), candidates)
        pinned = Baseline(first.name, first.metrics, tolerance=pin_tolerance,
                          scenario=first.scenario)
        print(f"baseline pinned: {pinned.write(args.write_baseline)}")
    return 1 if failed else 0


def _run_chaos(args: argparse.Namespace, spec) -> None:
    from repro.workloads.scenario import build

    engine, (job,), recorder = build(
        spec, export_dir=args.obs_dir, pin_wall_time=args.pin_wall_time
    )
    engine.run(spec.duration)

    print(f"chaos run: {args.duration:.0f}s, rate={args.rate:.0f}/s, "
          f"bound={args.bound * 1000:.0f}ms, seed={args.seed}, "
          f"fault-seed={args.fault_seed}")
    print()
    print("fault timeline:")
    if job.fault_injector is None:
        print("  (no faults armed)")
    else:
        for at, kind, target, detail in job.fault_injector.trace():
            print(f"  t={at:7.2f}  {kind:<20s} {target:<16s} {detail}")
    print()
    print("worker parallelism (5 s samples):")
    series = recorder.parallelism_series("worker")
    print("  " + " ".join(f"{p}" for _, p in series))
    scaler = job.scaler
    if scaler is not None:
        print()
        print(f"scaler: {len(scaler.events)} activations, "
              f"{scaler.skipped_stale} stale constraints skipped, "
              f"{scaler.suppressed_scale_downs} scale-downs suppressed by "
              "recovery cooldown")
    reconciler = job.reconciler
    if reconciler is not None:
        print()
        print(f"actuation: {reconciler.requests} requests, "
              f"{reconciler.applied} applied, {reconciler.retries} retries, "
              f"{reconciler.give_ups} give-ups, "
              f"{reconciler.escalations} watchdog escalations")
        print(f"  in flight: {len(reconciler.in_flight)}, "
              f"convergence lag: {reconciler.convergence_lag()}, "
              f"abandoned: {reconciler.give_ups}")
    state_manager = job.state_manager
    if state_manager is not None:
        s = state_manager.summary()
        m = s["migrations"]
        print()
        print(f"state: {m['started']} migrations "
              f"({m['completed']} completed, {m['failed']} failed, "
              f"{m['rolled_back']} rolled back, {m['deferred']} deferred)")
        print(f"  migrated: {s['state_migrated_bytes']} bytes, "
              f"lost to crashes: {s['state_lost_bytes']} bytes")
        print(f"  pauses: migration {s['migration_pause_s']:.3f}s, "
              f"checkpoint {s['checkpoint_pause_s']:.3f}s "
              f"({s['checkpoints']} checkpoints @ {s['checkpoint_interval']:.0f}s)")
        print(f"  crash recoveries: {s['crash_recoveries']}, "
              f"replay charged: {s['recovery_time_s']:.3f}s")
    for tracker in job.trackers:
        print(f"constraint {tracker.constraint.name}: "
              f"{tracker.fulfillment_ratio * 100:.1f}% fulfilled "
              f"({tracker.violations} violations / {len(tracker.history)} intervals)")
    crashes = {
        name: rv.crashes
        for name, rv in job.runtime.vertices.items()
        if rv.crashes
    }
    if crashes:
        print(f"crashes by vertex: {crashes}")
    if args.obs_dir is not None:
        paths = engine.export_run()
        print()
        print("exported: " + ", ".join(sorted(paths.values())))


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "info":
        print(f"repro {repro.__version__} — Elastic Stream Processing with "
              "Latency Guarantees (ICDCS 2015)")
        print("experiments: " + ", ".join(FIGURES))
        print("see DESIGN.md for the paper-to-module map and EXPERIMENTS.md "
              "for paper-vs-measured results")
        return 0
    if args.command == "experiment":
        for name in FIGURES if args.name == "all" else (args.name,):
            run_figure(
                name, args.quick,
                os.path.join(args.csv, FIGURES[name].artefact) if args.csv else None,
            )
        return 0
    if args.command in ("run", "chaos"):
        try:
            spec = run_spec(args) if args.command == "run" else chaos_spec(args)
        except ValueError as exc:  # a rate, bound or duration no scenario can have
            parser.error(str(exc))
        if args.command == "chaos":
            _run_chaos(args, spec)
            return 0
        if args.shared_cluster:
            return _run_shared(parser, spec)
        return _run_plain(args, spec)
    if args.command == "bench":
        from repro.bench.core import run_from_args as run_bench

        return run_bench(args)
    if args.command == "sweep":
        return _run_sweep(parser, args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "trace":
        if args.check:
            return _trace_check(args.obs_dir)
        if args.trace_command == "show":
            return _trace_show(args.dir, args.last)
        if args.trace_command == "generate":
            try:
                trace = generate_diurnal_trace(
                    days=args.days,
                    base_rate=args.base_rate,
                    daily_amplitude=args.amplitude,
                    seed=args.seed,
                )
            except ValueError as exc:
                print(f"cannot generate a trace: {exc}")
                return 2
            path = save_trace(args.out, trace)
            print(f"wrote {len(trace)} samples ({args.days} days) to {path}")
            return 0
        if args.trace_command == "info":
            from repro.qos.stats import mean_in_order

            try:
                trace = load_trace(args.path)
            except (OSError, ValueError) as exc:
                print(f"cannot read trace {args.path!r}: {exc}")
                return 2
            rates = [rate for _, rate in trace]
            duration = trace[-1][0]
            print(f"{args.path}: {len(trace)} samples over {duration / 86400:.1f} days")
            print(f"rate min/mean/max: {min(rates):.0f} / "
                  f"{mean_in_order(rates):.0f} / {max(rates):.0f} items/s")
            return 0
        # a bare ``repro trace`` prints its help and fails like a bare ``repro``
        with contextlib.suppress(SystemExit):
            parser.parse_args(["trace", "--help"])
    return 2
