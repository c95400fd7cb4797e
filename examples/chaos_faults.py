"""Chaos run: deterministic fault injection against an elastic pipeline.

Builds the quickstart-style pipeline, then arms a deterministic fault
plan: a task crash at t=30 s (restarted 2 s later), a QoS measurement
dropout from t=30-50 s, and a 3x service-time spike at t=70 s. Because
the fault schedule rides the same simulation event heap as everything
else, re-running with the same seeds reproduces the run exactly — the
printed fault timeline and parallelism trace are byte-identical across
invocations.

Watch the graceful-degradation paths engage:
 - the crashed task is restarted and its QoS reporter re-registered;
 - the scaler skips constraints whose measurements went stale during
   the dropout (``skipped_stale``) instead of acting on bad data;
 - scale-downs are suppressed for a cooldown after each fault event
   (``suppressed_scale_downs``), so the system never shrinks on the
   artificially low post-crash measurements.

Run:  python examples/chaos_faults.py
"""

from repro import (
    ConstantRate,
    EngineConfig,
    Gamma,
    MeasurementDropout,
    PipelineBuilder,
    ServiceSpike,
    StreamProcessingEngine,
    TaskCrash,
)
from repro.experiments.recording import SeriesRecorder


def build_pipeline():
    """Source (400/s) -> worker (elastic, 4 ms/item) -> sink, 30 ms bound."""
    return (
        PipelineBuilder("chaos-demo")
        .source(lambda now, rng: rng.random(), rate=ConstantRate(400.0))
        .map("worker", lambda x: x * x, service=Gamma(0.004, 0.7),
             parallelism=(4, 1, 32))
        .sink()
        .constrain(bound=0.030)
        .inject(
            TaskCrash(at=30.0, vertex="worker", restart_delay=2.0),
            MeasurementDropout(at=30.0, duration=20.0),
            ServiceSpike(at=70.0, vertex="worker", factor=3.0, duration=10.0),
            seed=0,
        )
        .build()
    )


def main():
    pipeline = build_pipeline()
    engine = StreamProcessingEngine(EngineConfig(elastic=True, seed=7))
    recorder = SeriesRecorder(engine, interval=5.0, source_vertex="source",
                              source_profile=ConstantRate(400.0))
    job = engine.submit(pipeline)
    engine.run(120.0)

    print("fault timeline:")
    for at, kind, target, detail in job.fault_injector.trace():
        print(f"  t={at:7.2f}  {kind:<20s} {target:<16s} {detail}")

    print()
    print("worker parallelism (5 s samples):")
    print("  " + " ".join(str(p) for _, p in recorder.parallelism_series("worker")))

    scaler = job.scaler
    tracker = job.trackers[0]
    print()
    print(f"scaler activations:        {len(scaler.events)}")
    print(f"stale constraints skipped: {scaler.skipped_stale}")
    print(f"scale-downs suppressed:    {scaler.suppressed_scale_downs}")
    print(f"constraint fulfilled in {tracker.fulfillment_ratio * 100:.1f}% "
          f"of {len(tracker.history)} adjustment intervals")


if __name__ == "__main__":
    main()
