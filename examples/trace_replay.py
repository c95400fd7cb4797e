"""Replaying a multi-day rate trace, compressed — like the paper's replay.

The paper replays two weeks of tweets within a 100-minute experiment
("at the correct historic rates or a multiple thereof"). This example
synthesizes a 14-day diurnal rate trace, saves/reloads it as CSV, then
replays it compressed ~2000x (into ~10 minutes) through the elastic
TwitterSentiment job.

Run:  python examples/trace_replay.py [--fast]
"""

import os
import sys
import tempfile

from repro import (
    EngineConfig,
    StreamProcessingEngine,
    TraceRateProfile,
    TwitterSentimentParams,
    generate_diurnal_trace,
    load_trace,
    save_trace,
)
from repro.workloads.twitter_job import build_twitter_sentiment_job


def main(fast: bool = False) -> None:
    days = 4 if fast else 14
    replay_seconds = 120.0 if fast else 600.0

    # 1. Synthesize and persist the trace (stand-in for the 69 GB dataset).
    trace = generate_diurnal_trace(
        days=days,
        base_rate=4000.0,           # "historic" aggregate tweets/s
        daily_amplitude=0.6,
        bursts=[(days * 86_400 * 0.6, 3600.0, 2.5)],  # one viral hour
        seed=7,
    )
    path = os.path.join(tempfile.gettempdir(), "repro_tweet_trace.csv")
    save_trace(path, trace)
    print(f"trace: {len(trace)} samples over {days} days -> {path}")

    # 2. Reload and wrap it as a compressed, scaled rate profile.
    loaded = load_trace(path)
    compression = days * 86_400 / replay_seconds
    params = TwitterSentimentParams()
    # scale historic aggregate rates down to the simulation's regime and
    # split across the source tasks
    rate_scale = 0.05 / params.n_sources
    profile = TraceRateProfile(loaded, compression=compression, rate_scale=rate_scale)
    print(
        f"replaying {days} days in {profile.replay_duration:.0f}s "
        f"(compression {compression:.0f}x, rate scale {rate_scale:.3f})"
    )

    # 3. Run the TwitterSentiment job against the replayed trace.
    graph, constraints = build_twitter_sentiment_job(params)
    graph.vertex("TweetSource").rate_profile = profile
    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True, seed=3))
    job = engine.submit(graph, constraints)

    print(f"{'time':>6}  {'tweets/s':>8}  {'p(HT)':>5}  {'p(F)':>5}  {'p(S)':>5}")
    step = replay_seconds / 12
    while engine.now < replay_seconds:
        engine.run(step)
        print(
            f"{engine.now:6.0f}  {profile.rate(engine.now) * params.n_sources:8.0f}  "
            f"{job.parallelism('HotTopics'):5d}  "
            f"{job.parallelism('Filter'):5d}  "
            f"{job.parallelism('Sentiment'):5d}"
        )

    print()
    for tracker in job.trackers:
        print(
            f"{tracker.constraint.name}: fulfilled "
            f"{tracker.fulfillment_ratio * 100:.1f}% of {tracker.intervals_observed} intervals"
        )
    print(f"task-seconds: {engine.resources.task_seconds():.0f}")


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
