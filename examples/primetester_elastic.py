"""The paper's PrimeTester evaluation, scaled for a laptop (Sec. V-A).

Runs the PrimeTester job (Fig. 2) with a 20 ms latency constraint and the
reactive scaling strategy through the full warm-up / increment / plateau
/ decrement phase plan, then prints the adaptation timeline and the
headline numbers Fig. 6 reports (fulfillment ratio, task-seconds,
parallelism trajectory).

Run:  python examples/primetester_elastic.py [--fast]
"""

import sys

from repro import EngineConfig, PrimeTesterParams, StreamProcessingEngine, build_primetester_job
from repro.workloads.primetester import phase_boundaries, primetester_constraint


def main(fast: bool = False) -> None:
    params = PrimeTesterParams(
        n_sources=4,
        n_testers=8,
        tester_min=1,
        tester_max=64,
        warmup_rate=25.0,
        peak_rate=400.0,
        increment_steps=4 if fast else 6,
        step_duration=10.0 if fast else 20.0,
    )
    graph, profile = build_primetester_job(params)
    constraint = primetester_constraint(graph, bound=0.020)

    engine = StreamProcessingEngine(
        EngineConfig.nephele_adaptive(
            elastic=True,
            per_batch_overhead=0.0015,
            per_item_overhead=0.00002,
            seed=11,
        )
    )
    job = engine.submit(graph, [constraint])

    phases = phase_boundaries(params)
    print("phase plan:", ", ".join(f"{name}@{t:.0f}s" for name, t in phases))
    print()
    print(f"{'time':>6}  {'rate/src':>8}  {'p(PT)':>5}  {'mean lat':>10}  {'violated':>8}")

    duration = profile.end_time + params.step_duration
    step = 10.0
    while engine.now < duration:
        engine.run(step)
        tracker = job.trackers[0]
        latest = tracker.history[-1] if tracker.history else None
        latency = f"{latest[1] * 1000:7.1f} ms" if latest else "-"
        violated = "yes" if latest and latest[2] else ""
        print(
            f"{engine.now:6.0f}  {profile.rate(engine.now):8.0f}  "
            f"{job.parallelism('PrimeTester'):5d}  {latency:>10}  {violated:>8}"
        )

    tracker = job.trackers[0]
    print()
    print(f"constraint (20 ms) fulfilled: {tracker.fulfillment_ratio * 100:.1f}% "
          f"of {tracker.intervals_observed} adjustment intervals  (paper: ~91%)")
    print(f"task-seconds: {engine.resources.task_seconds():.0f}")
    print(f"scaling actions: {len(job.scaler.events)}")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
