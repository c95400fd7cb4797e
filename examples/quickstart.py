"""Quickstart: a latency-constrained pipeline with reactive elastic scaling.

Builds a three-stage job (Source -> Analyzer -> Sink), declares a 30 ms
latency constraint over it, and runs it on the simulated engine with the
paper's reactive scaling strategy enabled. The load doubles twice; watch
the engine add Analyzer tasks to keep the constraint and remove them when
the load falls again.

Run:  python examples/quickstart.py
"""

from repro import (
    EngineConfig,
    Gamma,
    JobGraph,
    JobSequence,
    LatencyConstraint,
    MapUDF,
    PiecewiseRate,
    SinkUDF,
    SourceUDF,
    StreamProcessingEngine,
)


def build_job():
    """Source -> Analyzer (elastic, 4 ms/item) -> Sink."""
    graph = JobGraph("quickstart")
    source = graph.add_vertex(
        "Source", lambda: SourceUDF(lambda now, rng: rng.random())
    )
    analyzer = graph.add_vertex(
        "Analyzer",
        lambda: MapUDF(lambda x: x * x, service_dist=Gamma(0.004, 0.7)),
        parallelism=2,
        min_parallelism=1,
        max_parallelism=32,
    )
    sink = graph.add_vertex("Sink", lambda: SinkUDF())
    graph.connect(source, analyzer)
    graph.connect(analyzer, sink)

    # Load profile: 100/s, then 500/s, then 1 000/s, then back down.
    source.rate_profile = PiecewiseRate(
        [(0.0, 100.0), (40.0, 500.0), (80.0, 1000.0), (120.0, 200.0)]
    )
    return graph


def main():
    graph = build_job()
    # Constraint: <= 30 ms mean latency from Source exit to Sink entry.
    sequence = JobSequence.from_names(
        graph, ["Analyzer"], leading_edge=True, trailing_edge=True
    )
    constraint = LatencyConstraint(sequence, bound=0.030)

    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True))
    job = engine.submit(graph, [constraint])

    print(f"{'time':>6}  {'rate/s':>7}  {'p(Analyzer)':>11}  {'mean latency':>12}")
    profile = graph.vertex("Source").rate_profile
    for _ in range(16):
        engine.run(10.0)
        tracker = job.trackers[0]
        latest = tracker.history[-1] if tracker.history else None
        latency = f"{latest[1] * 1000:9.1f} ms" if latest else "warming up"
        print(
            f"{engine.now:6.0f}  {profile.rate(engine.now):7.0f}  "
            f"{job.parallelism('Analyzer'):11d}  {latency:>12}"
        )

    tracker = job.trackers[0]
    print()
    print(f"constraint fulfilled in {tracker.fulfillment_ratio * 100:.1f}% "
          f"of {tracker.intervals_observed} adjustment intervals")
    print(f"scaling actions taken: {len(job.scaler.events)}")
    print(f"task-seconds consumed: {engine.resources.task_seconds():.0f}")


if __name__ == "__main__":
    main()
