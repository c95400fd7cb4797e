#!/usr/bin/env python3
"""The repo's end-to-end benchmark: six workloads, measured from outside.

One workload, as the driver runs it (the last stdout line is the JSON
result; ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the
per-layer ones)::

    python3 benchmarks/e2e/run.py --workload station_saturated --seed 23 \\
        --seconds 10 --trace 0

The whole suite (every workload, ``--repeats`` fresh-process repeats
interleaved across workloads, medians and quartiles, optional traced
pass), and the comparison of two suite reports::

    python3 benchmarks/e2e/run.py [--seed 23] [--repeats 5] [--trace] [--out A.json]
    python3 benchmarks/e2e/run.py compare A.json B.json

See README.md in this directory for the catalogue and how to read it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACE_DIR = os.path.join(HERE, "trace")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import catalogue  # noqa: E402
from calibration import reference_seconds  # noqa: E402
import compare as compare_reports  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: fresh-process repeats of the timed job per measurement
TIMED_RUNS = 2
#: setup-only child processes per measurement (the timed runs' own
#: start-ups are samples too)
SETUP_SAMPLES = 6
#: the traced pass runs the job at this share of the timed size, once
#: untraced and once under cProfile, so that it fits the run budget
TRACE_SCALE = 0.5
#: a run whose CPU/wall ratio is below this was disturbed; per worker
#: for sweep_mixed, whose pool idles a few percent in spawn/poll gaps
UNDISTURBED_CPU_PER_WALL = 0.9
UNDISTURBED_CPU_PER_POOL_WORKER = 0.85
SMOKE_DIVISOR = 20.0


class WorkerFailed(RuntimeError):
    """A child process crashed or printed no result."""


def spawn_worker(mode: str, workload: Optional[str], seed: int,
                 seconds: float) -> Dict[str, object]:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload or mode}-", dir=WORK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--seed", str(seed), "--seconds", repr(float(seconds)), "--workdir", workdir,
    ]
    if workload is not None:
        command += ["--workload", workload]
    try:
        command += ["--spawned-at", repr(time.monotonic())]
        done = subprocess.run(command, env=env, capture_output=True, text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerFailed(
            f"worker {mode} {workload} exited {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def _reference_steps(run: Dict[str, object]) -> List[float]:
    return [reference_seconds(wall, calibration) for wall, calibration
            in zip(run["segment_wall_s"], run["segment_calibration_s"])]


def _disturbed(run: Dict[str, object]) -> bool:
    if run["workers"] > 1:
        return run["cpu_per_wall"] < UNDISTURBED_CPU_PER_POOL_WORKER * run["workers"]
    return run["cpu_per_wall"] < UNDISTURBED_CPU_PER_WALL


# ----------------------------------------------------------------------
# one workload, one invocation
# ----------------------------------------------------------------------

def _setup_reference_s(sample: Dict[str, object]) -> float:
    return reference_seconds(sample["setup_s"], sample["setup_calibration_s"])


def measure(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """The timed, untraced measurement: every end-to-end metric.

    Host times are in reference seconds (see ``calibration.py``).
    The job runs ``TIMED_RUNS`` times in fresh processes. It is
    deterministic, so step *i* of one run is the same work as step *i*
    of the other, and what the calibration does not explain only ever
    adds: ``sim_speed`` takes each step's faster time. The runs' sim
    digests must agree.
    """
    attempted = failed = 0
    setups: List[float] = []
    for _ in range(SETUP_SAMPLES):
        attempted += 1
        try:
            setups.append(_setup_reference_s(spawn_worker("setup", workload, seed, seconds)))
        except WorkerFailed as exc:
            failed += 1
            print(f"  setup sample failed: {exc}", file=sys.stderr)
    runs = [spawn_worker("run", workload, seed, seconds) for _ in range(TIMED_RUNS)]
    setups += [_setup_reference_s(run) for run in runs]
    first = runs[0]
    steps = [min(times) for times in zip(*(_reference_steps(run["run"]) for run in runs))]
    sim = first["sim"]
    metrics = {
        "sim_speed": first["run"]["virtual_s"] / sum(steps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "fulfillment_min": sim["fulfillment_min"],
        "task_seconds": sim["task_seconds"],
        "latency_mean_ms": sim["latency_mean_ms"],
        "latency_p99_ms": sim["latency_p99_ms"],
    }
    checks = dict(first["checks"])
    for run in runs[1:]:
        checks.update({name: ok and checks.get(name, True)
                       for name, ok in run["checks"].items()})
    digests = {run["sim_digest"] for run in runs}
    checks["runs_repeat_exactly"] = len(digests) == 1
    checks["every_metric_measured"] = all(
        isinstance(value, (int, float)) for value in metrics.values()
    )
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "metrics": metrics,
        "setup_samples_s": setups,
        "runs": [{"wall_s": run["run"]["wall_s"],
                  "reference_s": sum(_reference_steps(run["run"])),
                  "cpu_per_wall": run["run"]["cpu_per_wall"],
                  "disturbed": _disturbed(run["run"])} for run in runs],
        "steps": len(steps),
        "latency_samples": sim["latency_samples"],
        "latency_samples_beyond_p99": sim.get("latency_samples_beyond_p99"),
        "sim_digest": first["sim_digest"] if len(digests) == 1 else None,
        "checks": checks,
        "correct": all(checks.values()),
        "ops": {"attempted": attempted + sum(run["ops"]["attempted"] for run in runs),
                "failed": failed + sum(run["ops"]["failed"] for run in runs)
                + len(digests) - 1},
        "unavailable": first["unavailable"],
    }


def shape_checks(workload: str, share: Dict[str, float],
                 counters: Dict[str, float]) -> Dict[str, bool]:
    """Does the workload still exercise the layer it is here for?"""
    if workload == "twitter_elastic":
        owned = {k: v for k, v in share.items() if k != "host"}
        return {"no_layer_dominates": max(owned.values()) < 0.5,
                "scaler_acted": counters["core.activations"] >= 1}
    if workload == "station_saturated":
        data_plane = sum(share[k] for k in (
            "engine.task", "engine.channel", "engine.queues", "simulation.kernel"))
        return {"data_plane_share_at_least_60pct": data_plane >= 0.60,
                "core_share_below_1pct": share["core"] < 0.01,
                "one_item_per_batch": counters["engine.channel.items_per_batch"] == 1}
    if workload == "shuffle_batched":
        return {"at_least_8_items_per_batch":
                counters["engine.channel.items_per_batch"] >= 8}
    if workload == "control_wide":
        return {"qos_plus_core_share_at_least_40pct": share["qos"] + share["core"] >= 0.40}
    if workload == "stateful_chaos":
        return {"a_migration_completed": counters["engine.state.migrations_completed"] >= 1,
                "a_migration_rolled_back":
                counters["engine.state.migrations_rolled_back"] >= 1,
                "a_crash_recovered": counters["engine.state.crash_recoveries"] >= 1,
                "trace_non_empty": counters["obs.trace_records"] >= 1}
    if workload == "sweep_mixed":
        return {"an_admission_denial": counters["engine.scheduler.admission_denials"] >= 1,
                "a_preemption": counters["engine.scheduler.preempted_tasks"] >= 1}
    raise KeyError(workload)


def trace(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """The traced pass: every per-layer metric, and ``trace/<workload>.json``."""
    scaled = seconds * TRACE_SCALE
    plain = spawn_worker("run", workload, seed, scaled)
    traced = spawn_worker("profile", workload, seed, scaled)
    rows = spawn_worker("micro", None, seed, scaled)
    profile = traced["profile"]["layers"]
    traced_reference_s = sum(_reference_steps(traced["run"]))
    to_reference = traced_reference_s / sum(traced["run"]["segment_wall_s"])
    values: Dict[str, Optional[float]] = {}
    not_applicable: List[str] = []
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = profile[layer]["self_s"] * to_reference
        values[f"{layer}.share"] = profile[layer]["share"]
        values[f"{layer}.calls"] = profile[layer]["calls"]
    for name in catalogue.COUNTERS:
        if name in traced["counters"]:
            values[name] = traced["counters"][name]
        else:
            # no such work on this workload, or (sweep_mixed) not
            # observable from the parent process
            values[name] = 0
            not_applicable.append(name)
    values.update(rows["micro"])
    values["trace_overhead_x"] = traced_reference_s / sum(_reference_steps(plain["run"]))
    if "theory_error_pct" in traced["sim"]:
        values["theory_error_pct"] = traced["sim"]["theory_error_pct"]
    else:
        values["theory_error_pct"] = 0
        not_applicable.append("theory_error_pct")
    unavailable = dict(traced["unavailable"])
    unavailable.update(rows["unavailable"])
    share = {layer: profile[layer]["share"] for layer in layers.LAYERS}
    shape_ok = shape_checks(workload, share, values) if seconds >= 1.0 else {}
    checks = dict(traced["checks"])
    checks["traced_run_repeats_untraced_run"] = plain["sim_digest"] == traced["sim_digest"]
    checks.update({f"shape:{name}": ok for name, ok in shape_ok.items()})
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_path = os.path.join(TRACE_DIR, f"{workload}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": workload, "seed": seed, "seconds": scaled,
            "traced_wall_s": traced["run"]["wall_s"],
            "untraced_wall_s": plain["run"]["wall_s"],
            "layers": profile, "spans": traced["profile"]["spans"],
        }, handle, indent=1)
        handle.write("\n")
    digests_differ = int(not checks["traced_run_repeats_untraced_run"])
    return {
        "workload": workload, "seed": seed, "seconds": scaled,
        "metrics": values,
        "not_applicable": not_applicable,
        # a pool parent's profile counts sleep/poll iterations, which
        # depend on how long the children took
        "not_exact": [f"{layer}.calls" for layer in layers.LAYERS]
        if traced["run"]["workers"] > 1 else [],
        "unavailable": unavailable,
        "shape_ok": shape_ok,
        "sim_digest": traced["sim_digest"],
        "disturbed": _disturbed(plain["run"]) or _disturbed(traced["run"]),
        "checks": checks,
        "correct": all(checks.values()),
        # beside the two runs' own: the micro worker and the digest comparison
        "ops": {"attempted": plain["ops"]["attempted"] + traced["ops"]["attempted"] + 2,
                "failed": plain["ops"]["failed"] + traced["ops"]["failed"] + digests_differ},
        "trace_file": os.path.relpath(trace_path, ROOT),
    }


def _units(rows) -> Dict[str, str]:
    return {row["name"]: row["unit"] for row in rows}


def driver_line(record: Dict[str, object], units: Dict[str, str]) -> str:
    """The one-line JSON result of the driver's contract."""
    return json.dumps({
        "correct": bool(record["correct"]),
        "attempted": record["ops"]["attempted"],
        "failed": record["ops"]["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    })


def print_record(record: Dict[str, object], units: Dict[str, str]) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']:g}  sim_digest {str(record['sim_digest'])[:16]}")
    for name, unit in units.items():
        value = record["metrics"][name]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit}")
    if "latency_samples" in record:
        print(f"  latency samples {record['latency_samples']}, "
              f"{record['latency_samples_beyond_p99']} beyond p99; "
              f"{len(record['setup_samples_s'])} set-up samples; {record['steps']} steps")
        for index, run in enumerate(record["runs"]):
            print(f"  run {index + 1}: wall {run['wall_s']:.3f} s, "
                  f"{run['reference_s']:.3f} reference s, cpu/wall "
                  f"{run['cpu_per_wall']:.3f}{'  DISTURBED' if run['disturbed'] else ''}")
    for name, ok in record.get("shape_ok", {}).items():
        print(f"  shape_ok {name}: {ok}")
    for name, reason in record["unavailable"].items():
        print(f"  unavailable {name}: {reason}")
    failed = [name for name, ok in record["checks"].items() if not ok]
    print(f"  checks: {len(record['checks']) - len(failed)} ok"
          + (f", FAILED {failed}" if failed else "")
          + f"; operations {record['ops']['failed']} failed of {record['ops']['attempted']}")


def run_driver(args) -> int:
    benchmark = catalogue.benchmark_json()
    if args.trace:
        record = trace(args.workload, args.seed, args.seconds)
        units = _units(benchmark["per_layer"])
    else:
        record = measure(args.workload, args.seed, args.seconds)
        units = _units(benchmark["end_to_end"])
    print_record(record, units)
    print(driver_line(record, units))
    return 0


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------

def run_suite(args) -> int:
    seconds = args.seconds / (SMOKE_DIVISOR if args.smoke else 1.0)
    repeats = 1 if args.smoke else args.repeats
    names = list(workloads.WORKLOADS)
    benchmark = catalogue.benchmark_json()
    e2e_units = _units(benchmark["end_to_end"])
    layer_units = _units(benchmark["per_layer"])
    records: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    attempted = failed = 0
    # repeats interleaved across workloads so drift hits all equally
    for repeat in range(repeats):
        for name in names:
            print(f"-- repeat {repeat + 1}/{repeats}: {name}", file=sys.stderr)
            try:
                records[name].append(measure(name, args.seed, seconds))
            except WorkerFailed as exc:
                attempted += 1
                failed += 1
                print(f"   run failed: {exc}", file=sys.stderr)
    report: Dict[str, object] = {
        "schema": 1, "seed": args.seed, "seconds": seconds, "repeats": repeats,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "workloads": {},
    }
    for name in names:
        runs = records[name]
        digests = sorted({str(run["sim_digest"]) for run in runs})
        agree = len(digests) == 1 and digests[0] != "None"
        entry: Dict[str, object] = {
            "end_to_end": {}, "sim_digest": digests[0] if agree else None,
            "runs": [timed for run in runs for timed in run["runs"]],
            "latency_samples": runs[0]["latency_samples"] if runs else 0,
            "correct": bool(runs) and all(run["correct"] for run in runs),
            "failed_checks": sorted({c for run in runs
                                     for c, ok in run["checks"].items() if not ok}),
        }
        attempted += sum(run["ops"]["attempted"] for run in runs)
        failed += sum(run["ops"]["failed"] for run in runs)
        if len(digests) > 1:
            # a sim_digest that differs between repeats of one seed
            failed += len(digests) - 1
            entry["digests"] = digests
        for metric, kind, unit, _better, _bound, _meaning in catalogue.END_TO_END:
            samples = [run["metrics"][metric] for run in runs
                       if run["metrics"][metric] is not None]
            if samples:
                entry["end_to_end"][metric] = dict(
                    compare_reports.summarize(samples), kind=kind, unit=unit, samples=samples)
        report["workloads"][name] = entry
    if args.trace:
        for name in names:
            print(f"-- traced pass: {name}", file=sys.stderr)
            try:
                traced = trace(name, args.seed, seconds)
            except WorkerFailed as exc:
                attempted += 1
                failed += 1
                print(f"   traced pass failed: {exc}", file=sys.stderr)
                continue
            entry = report["workloads"][name]
            entry["per_layer"] = traced["metrics"]
            entry["shape_ok"] = traced["shape_ok"]
            entry["not_applicable"] = traced["not_applicable"]
            entry["not_exact"] = traced["not_exact"]
            entry["unavailable"] = traced["unavailable"]
            entry["trace_file"] = traced["trace_file"]
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["failed_checks"] += [c for c, ok in traced["checks"].items() if not ok]
            attempted += traced["ops"]["attempted"]
            failed += traced["ops"]["failed"]
    report["ops"] = {"attempted": attempted, "failed": failed}
    print_suite(report, e2e_units, layer_units)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if failed == 0 and all(
        entry["correct"] for entry in report["workloads"].values()) else 1


def print_suite(report, e2e_units, layer_units) -> None:
    machine = report["machine"]
    print(f"e2e benchmark  seed {report['seed']}  seconds {report['seconds']:g}  "
          f"repeats {report['repeats']}  python {machine['python']}  "
          f"{machine['cpus']} cpus  {machine['platform']}")
    for name, entry in report["workloads"].items():
        disturbed = sum(run["disturbed"] for run in entry["runs"])
        print(f"\n== {name}  sim_digest {entry['sim_digest']}  "
              f"correct {entry['correct']}  disturbed runs {disturbed}/{len(entry['runs'])}")
        for failed_check in entry["failed_checks"]:
            print(f"  FAILED check {failed_check}")
        for metric, unit in e2e_units.items():
            row = entry["end_to_end"].get(metric)
            if row is None:
                print(f"  {metric:18s} {'null':>12s} {unit}")
            elif row["kind"] == "sim":
                exact = "exact" if len(set(row["samples"])) == 1 else "DIFFERS BETWEEN REPEATS"
                print(f"  {metric:18s} {row['median']:12.6g} {unit:13s} sim   n={row['n']} {exact}")
            else:
                print(f"  {metric:18s} {row['median']:12.6g} {unit:13s} host  n={row['n']} "
                      f"q1 {row['q1']:.6g} q3 {row['q3']:.6g}")
        print(f"  latency samples {entry['latency_samples']}")
        for metric, unit in layer_units.items():
            if "per_layer" in entry:
                value = entry["per_layer"][metric]
                note = "  (n/a)" if metric in entry["not_applicable"] else ""
                shown = "null" if value is None else f"{value:.6g}"
                print(f"  {metric:40s} {shown:>14s} {unit}{note}")
        for check, ok in entry.get("shape_ok", {}).items():
            print(f"  shape_ok {check}: {ok}")
        for metric, reason in entry.get("unavailable", {}).items():
            print(f"  unavailable {metric}: {reason}")
    print(f"\nops_failed {report['ops']['failed']} / ops_attempted {report['ops']['attempted']}")


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare_reports.main(argv[1:], os.path.join(ROOT, "BENCHMARK.json"))
    if argv[:1] == ["catalogue"]:
        print(json.dumps(catalogue.benchmark_json(), indent=2))
        return 0
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="run this one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=float(catalogue.RUN_SECONDS),
                        help="size of the run phase, in wall seconds on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, default=5, help="suite: repeats per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="suite: sizes / 20 and one repeat, to see every name emitted")
    parser.add_argument("--out", help="suite: write the report as JSON")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"{SRC}/repro not found: this benchmark measures the repro package",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            return run_driver(args)
        return run_suite(args)
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        # each worker's directory is already gone; a concurrent
        # invocation may still be using its own
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
