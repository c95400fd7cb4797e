"""Pinned-seed micro/macro benchmarks behind ``python -m repro bench``.

Every benchmark is deterministic in *work* (pinned seeds, fixed event
counts) and stochastic only in *wall time*, which is what it measures.
Results land in ``BENCH_core.json`` so the repo carries a measured
performance trajectory from PR to PR.

Micro benchmarks drive the same event workload through the frozen
pre-fast-path kernel (:mod:`repro.bench.legacy`) and the live kernel, so
each records a **machine-independent speedup factor** — CI regression
checks compare speedups, never absolute events/sec, and therefore work
across differently-sized runners:

``kernel``
    Fire-and-forget self-rescheduling chains — the shape of the engine's
    per-record hot path (service completions, source ticks). Legacy
    ``schedule`` vs. live ``schedule_fire``. This is the headline number:
    the fast-path PR's acceptance bar was ``speedup >= 2.0``.
``kernel_handles``
    The same chains via cancellable handles on both kernels — isolates
    the tuple-keyed-heap win from the allocation win.
``kernel_batch``
    Precomputed arrival times: legacy one-``schedule_at``-per-record vs.
    one :meth:`~repro.simulation.kernel.Simulator.schedule_batch` walker
    per chain (the batched-arrival mode).

The macro benchmark (``macro_twitter``) runs the reduced elastic
TwitterSentiment job (Fig. 8 ``--quick`` parameterization) end to end —
tasks, channels, QoS sampling, scaler — and records wall time and
simulator events/sec. It has no legacy twin (the whole engine cannot be
dual-hosted), so regression checks gate its ``kernel_relative`` ratio
instead: macro events/sec divided by the *legacy* kernel's raw
events/sec measured in the same process. Machine speed cancels out of
the ratio, so the gate works across differently-sized runners just like
the micro speedups; a fresh ratio below the relative tolerance × the
committed ratio means the engine layer (not the machine) got slower.

``--profile PATH`` additionally runs the macro workload under
``cProfile`` and dumps binary ``pstats`` data to ``PATH`` — CI uploads
it as an artifact so a regression comes with its own flame-graph food.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Callable, Dict, List

from repro.bench.legacy import LegacySimulator
from repro.simulation.kernel import Simulator

#: bump when the BENCH_core.json layout changes incompatibly
BENCH_SCHEMA_VERSION = 1

#: default output file, committed at the repo root as the CI baseline
BENCH_FILE = "BENCH_core.json"

#: >30% regression vs. the committed speedup fails the check
REGRESSION_TOLERANCE = 0.7

#: micro benchmark sizing (full / --quick)
FULL_EVENTS = 400_000
QUICK_EVENTS = 80_000
FULL_REPEATS = 5
QUICK_REPEATS = 3
CHAINS = 8


# ----------------------------------------------------------------------
# micro workloads
# ----------------------------------------------------------------------

def _chain_workload(sim, schedule: Callable, n_events: int, chains: int = CHAINS) -> int:
    """Self-rescheduling callback chains with staggered phases.

    Mirrors the engine's hot path: at any instant ``chains`` events are
    pending, each firing schedules its successor. Returns events fired.
    """
    remaining = [n_events // chains] * chains

    def tick(index: int) -> None:
        left = remaining[index] - 1
        remaining[index] = left
        if left > 0:
            schedule(0.001, tick, index)

    for index in range(chains):
        schedule(0.0005 + 0.0001 * index, tick, index)
    sim.run()
    return sim.fired_events


def _bench_kernel(n_events: int) -> Callable[[str], int]:
    def run(flavor: str) -> int:
        if flavor == "baseline":
            sim = LegacySimulator()
            return _chain_workload(sim, sim.schedule, n_events)
        sim = Simulator()
        return _chain_workload(sim, sim.schedule_fire, n_events)

    return run


def _bench_kernel_handles(n_events: int) -> Callable[[str], int]:
    def run(flavor: str) -> int:
        sim = LegacySimulator() if flavor == "baseline" else Simulator()
        return _chain_workload(sim, sim.schedule, n_events)

    return run


def _bench_kernel_batch(n_events: int) -> Callable[[str], int]:
    def run(flavor: str) -> int:
        per_chain = n_events // CHAINS
        counters = [0] * CHAINS

        def consume(index: int) -> None:
            counters[index] += 1

        if flavor == "baseline":
            legacy = LegacySimulator()
            for index in range(CHAINS):
                base = 0.0005 + 0.0001 * index
                for step in range(per_chain):
                    legacy.schedule_at(base + 0.001 * step, consume, index)
            legacy.run()
            return legacy.fired_events
        sim = Simulator()
        for index in range(CHAINS):
            base = 0.0005 + 0.0001 * index
            times = [base + 0.001 * step for step in range(per_chain)]
            sim.schedule_batch(times, consume, index)
        sim.run()
        return sim.fired_events

    return run


def _best_rate(run: Callable[[str], int], flavor: str, repeats: int) -> float:
    """Best events/sec over ``repeats`` runs (min-noise estimator)."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        fired = run(flavor)
        elapsed = time.perf_counter() - start
        if elapsed <= 0.0:  # pragma: no cover - perf_counter granularity
            continue
        best = max(best, fired / elapsed)
    return best


# ----------------------------------------------------------------------
# macro workload
# ----------------------------------------------------------------------

def _bench_macro_twitter(quick: bool) -> Dict[str, object]:
    from repro.builder import BuiltPipeline
    from repro.engine.engine import EngineConfig
    from repro.experiments.fig8_twitter import Fig8Params
    from repro.experiments.recording import deploy
    from repro.workloads.twitter_job import build_twitter_sentiment_job

    params = Fig8Params().quick()
    duration = 120.0 if quick else params.duration
    engine, (job,), _ = deploy(
        EngineConfig.nephele_adaptive(elastic=True, seed=params.seed),
        [BuiltPipeline(*build_twitter_sentiment_job(params.workload))],
    )
    start = time.perf_counter()
    engine.run(duration)
    wall = time.perf_counter() - start
    final_parallelism = {
        name: rv.parallelism for name, rv in job.runtime.vertices.items()
    }
    engine.stop()
    fired = engine.sim.fired_events
    return {
        "virtual_time_s": duration,
        "wall_time_s": round(wall, 4),
        "fired_events": fired,
        "events_per_sec": round(fired / wall, 1) if wall > 0 else 0.0,
        "final_parallelism": final_parallelism,
    }


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------

def run_benchmarks(quick: bool = False, macro: bool = True) -> Dict[str, object]:
    """Run the suite; returns the ``BENCH_core.json`` payload dict."""
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    micro = {
        "kernel": _bench_kernel(n_events),
        "kernel_handles": _bench_kernel_handles(n_events),
        "kernel_batch": _bench_kernel_batch(n_events),
    }
    benchmarks: Dict[str, object] = {}
    for name, run in micro.items():
        baseline = _best_rate(run, "baseline", repeats)
        current = _best_rate(run, "current", repeats)
        benchmarks[name] = {
            "baseline_events_per_sec": round(baseline, 1),
            "events_per_sec": round(current, 1),
            "speedup": round(current / baseline, 3) if baseline > 0 else 0.0,
        }
    if macro:
        macro_result = _bench_macro_twitter(quick)
        kernel_baseline = benchmarks["kernel"]["baseline_events_per_sec"]
        if kernel_baseline > 0:
            # machine-independent gate metric: engine-layer throughput as
            # a fraction of the legacy kernel's raw event rate, measured
            # in the same process so machine speed cancels out
            macro_result["kernel_relative"] = round(
                macro_result["events_per_sec"] / kernel_baseline, 6
            )
        benchmarks["macro_twitter"] = macro_result
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": "BENCH_core",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.system().lower(),
        "config": {
            "micro_events": n_events,
            "micro_repeats": repeats,
            "chains": CHAINS,
        },
        "benchmarks": benchmarks,
    }


def write_results(results: Dict[str, object], path: str = BENCH_FILE) -> str:
    """Write the payload as pretty JSON; returns the path."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_results(path: str) -> Dict[str, object]:
    """Load and schema-check a results file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bench schema {data.get('schema')!r} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    return data


def check_regression(
    fresh: Dict[str, object],
    committed: Dict[str, object],
    tolerance: float = REGRESSION_TOLERANCE,
) -> List[str]:
    """Compare a fresh run against the committed baseline file.

    Only machine-independent metrics are compared: the micro benchmarks'
    *speedup factors* and the macro benchmark's *kernel-relative* ratio
    (macro events/sec ÷ same-process legacy-kernel events/sec). A fresh
    value below ``tolerance`` × the committed value (default: a >30%
    regression) produces a failure message. Absolute events/sec are
    trajectory data and never gate.

    When the fresh run's mode (``--quick``) differs from the committed
    baseline's, the tolerance is squared (0.7 → 0.49): micro speedups
    shift with event-count-dependent heap sizes and the macro ratio with
    the shorter virtual duration, so a cross-mode comparison needs the
    wider band. Real fast-path regressions (2-6x → 1x) blow through
    either floor.
    """
    failures: List[str] = []
    if bool(fresh.get("quick")) != bool(committed.get("quick")):
        tolerance = tolerance * tolerance
    fresh_benches = fresh.get("benchmarks", {})
    committed_benches = committed.get("benchmarks", {})
    for name, reference in committed_benches.items():
        if not isinstance(reference, dict):
            continue
        if "speedup" in reference:
            metric, label = "speedup", "speedup"
        elif "kernel_relative" in reference:
            metric, label = "kernel_relative", "kernel-relative throughput"
        else:
            continue
        result = fresh_benches.get(name)
        if result is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if metric not in result:
            failures.append(f"{name}: fresh run lacks the {label} metric")
            continue
        floor = tolerance * float(reference[metric])
        got = float(result[metric])
        if got < floor:
            failures.append(
                f"{name}: {label} {got:.2f}x regressed below "
                f"{floor:.2f}x (committed {float(reference[metric]):.2f}x, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def format_results(results: Dict[str, object]) -> str:
    """Human-readable summary of a results payload."""
    lines = [
        f"bench (schema {results['schema']}, "
        f"{'quick' if results.get('quick') else 'full'}, "
        f"python {results.get('python')})"
    ]
    for name, bench in results.get("benchmarks", {}).items():
        if "speedup" in bench:
            lines.append(
                f"  {name:<16s} {bench['events_per_sec']:>12,.0f} ev/s   "
                f"baseline {bench['baseline_events_per_sec']:>12,.0f} ev/s   "
                f"speedup {bench['speedup']:.2f}x"
            )
        else:
            relative = (
                f"   kernel-relative {bench['kernel_relative']:.2f}x"
                if "kernel_relative" in bench else ""
            )
            lines.append(
                f"  {name:<16s} {bench['events_per_sec']:>12,.0f} ev/s   "
                f"{bench['fired_events']:,} events in {bench['wall_time_s']:.2f}s wall "
                f"({bench['virtual_time_s']:.0f}s virtual){relative}"
            )
    return "\n".join(lines)


def profile_macro(path: str, quick: bool = True) -> str:
    """Run the macro workload under cProfile; dump pstats data to ``path``.

    The dump loads back with ``pstats.Stats(path)`` (or any flame-graph
    converter that reads pstats). Returns the path.
    """
    import cProfile

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    _bench_macro_twitter(quick)
    profiler.disable()
    profiler.dump_stats(path)
    return path


def add_arguments(parser) -> None:
    """Declare the ``bench`` options on ``parser`` (the one declaration)."""
    parser.add_argument("--quick", action="store_true",
                        help="reduced event counts and macro duration (CI smoke)")
    parser.add_argument("--out", metavar="PATH", default=BENCH_FILE,
                        help=f"results file to write (default: {BENCH_FILE})")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare micro speedups and the macro's "
                             "kernel-relative throughput against a committed "
                             "results file; exit 1 on >30%% regression")
    parser.add_argument("--no-macro", action="store_true",
                        help="skip the elastic TwitterSentiment macro benchmark")
    parser.add_argument("--profile", metavar="PATH", default=None,
                        help="additionally run the macro workload under cProfile "
                             "and dump pstats data to PATH")


def run_from_args(args) -> int:
    """Run the suite as the parsed ``bench`` options say; the exit code."""
    results = run_benchmarks(quick=args.quick, macro=not args.no_macro)
    path = write_results(results, args.out)
    print(format_results(results))
    print(f"wrote {path}")
    if args.profile is not None:
        profile_path = profile_macro(args.profile, quick=args.quick)
        print(f"macro cProfile dump: {profile_path}")
    if args.check is not None:
        committed = load_results(args.check)
        failures = check_regression(results, committed)
        if failures:
            print(f"REGRESSION CHECK FAILED vs {args.check}:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"regression check OK vs {args.check}")
    return 0
