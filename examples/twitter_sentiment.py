"""The paper's TwitterSentiment application, scaled for a laptop (Sec. V-B).

Runs the six-vertex job of Fig. 7 against a synthetic tweet stream
(diurnal rate with a single-topic burst) under the paper's two latency
constraints (215 ms for the hot-topic pipeline, 30 ms for the sentiment
pipeline), with reactive elastic scaling. Prints the adaptation timeline,
per-constraint fulfillment, and the most talked-about topics with their
sentiment.

Run:  python examples/twitter_sentiment.py [--fast]
"""

import sys

from repro import EngineConfig, StreamProcessingEngine, TwitterSentimentParams
from repro.workloads.twitter_job import build_twitter_sentiment_job


def main(fast: bool = False) -> None:
    if fast:
        params = TwitterSentimentParams(
            period=120.0,
            bursts=((150.0, 25.0, 3.0),),
            topic_bursts=((150.0, 175.0, 0, 0.8),),
        )
        duration = 240.0
    else:
        params = TwitterSentimentParams()
        duration = 600.0

    graph, constraints = build_twitter_sentiment_job(params)
    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True, seed=23))
    job = engine.submit(graph, constraints)

    profile = graph.vertex("TweetSource").rate_profile
    print(f"{'time':>6}  {'tweets/s':>8}  {'p(HT)':>5}  {'p(F)':>5}  {'p(S)':>5}")
    while engine.now < duration:
        engine.run(20.0)
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

    # Aggregate sentiment across all sink tasks.
    counts = {}
    for task in job.runtime.vertex("Sink").tasks:
        for (topic, label), n in task.udf.sentiment_counts.items():
            counts.setdefault(topic, {}).setdefault(label, 0)
            counts[topic][label] += n
    top = sorted(counts.items(), key=lambda kv: -sum(kv[1].values()))[:8]
    print()
    print("most discussed hot topics (positive/neutral/negative):")
    for topic, labels in top:
        total = sum(labels.values())
        print(
            f"  {topic:<12} {total:6d} tweets   "
            f"{labels.get('positive', 0):5d} / {labels.get('neutral', 0):5d} / "
            f"{labels.get('negative', 0):5d}"
        )


if __name__ == "__main__":
    main(fast="--fast" in sys.argv[1:])
