"""The TwitterSentiment job (paper Sec. V-B, Fig. 7).

Six job vertices::

    TweetSource (TS) ──round-robin──> HotTopics (HT) ──> HotTopicsMerger (HTM)
         │                                                      │ broadcast
         └───────round-robin──> Filter (F) <────────────────────┘
                                   │
                                   └──> Sentiment (S) ──> Sink (SI)

Each tweet is forwarded twice by TS: once into the hot-topic pipeline
(HT aggregates 200 ms windows of topic counts; HTM merges the partial
lists and broadcasts the global list to all Filters) and once to a
Filter, which forwards only tweets concerning a currently hot topic to a
Sentiment task; the Sink tracks overall sentiment per topic.

Two latency constraints (paper values):

* Constraint (1): ``(e4, HT, e5, HTM, e6, F)`` with ℓ = 215 ms;
* Constraint (2): ``(e1, F, e2, S, e3)`` with ℓ = 30 ms.

HT, F and S are elastically scalable.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.constraints import LatencyConstraint
from repro.engine.udf import SinkUDF, SourceUDF, UDF, WindowedAggregateUDF
from repro.graphs.job_graph import JobGraph
from repro.graphs.sequences import JobSequence
from repro.simulation.randomness import BlockSampler as _BlockSampler
from repro.simulation.randomness import Deterministic, Distribution, Gamma
from repro.workloads.rates import DiurnalRate
from repro.workloads.sentiment import SentimentAnalyzer
from repro.workloads.tweets import Tweet, TweetTraceGenerator, TweetTraceParams

_source_ids = itertools.count()


class TopicList:
    """A HotTopics task's partial list of (topic, count), one per window."""

    __slots__ = ("source_id", "counts")

    def __init__(self, source_id: int, counts: Tuple[Tuple[str, int], ...]) -> None:
        self.source_id = source_id
        self.counts = counts


class MergedTopics:
    """The merged global hot-topic list broadcast to all Filter tasks."""

    __slots__ = ("topics",)

    def __init__(self, topics: Tuple[str, ...]) -> None:
        self.topics = frozenset(topics)


class SentimentResult:
    """Output of a Sentiment task: topic, label and the analyzed tweet."""

    __slots__ = ("topic", "label")

    def __init__(self, topic: str, label: str) -> None:
        self.topic = topic
        self.label = label


class HotTopicsMergerUDF(UDF):
    """Merges the HotTopics tasks' partial lists (paper: HTM, p = 1).

    Keeps the most recent partial list per upstream HT task (stale
    entries expire so lists from scaled-down tasks disappear) and emits
    the merged global top-k on every update — a map-like (read-ready)
    operator, so it adds no windowing delay to constraint (1).
    """

    def __init__(self, top_k: int, staleness: float, service_dist: Distribution) -> None:
        super().__init__(service_dist)
        self.top_k = top_k
        self.staleness = staleness
        self._partials: Dict[int, Tuple[float, Tuple[Tuple[str, int], ...]]] = {}
        self._task = None

    def open(self, task) -> None:
        self._task = task

    def process(self, payload: object):
        assert isinstance(payload, TopicList)
        now = self._task.sim.now if self._task is not None else 0.0
        self._partials[payload.source_id] = (now, payload.counts)
        cutoff = now - self.staleness
        stale = [sid for sid, (t, _) in self._partials.items() if t < cutoff]
        for sid in stale:
            del self._partials[sid]
        merged: Dict[str, int] = {}
        for _, counts in self._partials.values():
            for topic, count in counts:
                merged[topic] = merged.get(topic, 0) + count
        top = sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))[: self.top_k]
        return (MergedTopics(tuple(topic for topic, _ in top)),)


class TopicFilterUDF(UDF):
    """Forwards tweets concerning a currently hot topic (paper: F).

    Consumes two payload kinds from its shared input queue: broadcast
    :class:`MergedTopics` updates (cheap, update local state, emit
    nothing) and :class:`Tweet` items (forwarded iff on-topic).
    """

    def __init__(self, service_dist: Distribution, list_service: Distribution) -> None:
        super().__init__(service_dist)
        self.list_service = list_service
        self._hot = frozenset()
        self.tweets_seen = 0
        self.tweets_passed = 0

    def service_time(self, payload: object, rng: random.Random) -> float:
        if isinstance(payload, MergedTopics):
            return self.list_service.sample(rng)
        return self.service_dist.sample(rng)

    def make_service_sampler(self, rng, block_size=256):
        # Block pre-draw is safe despite the payload dispatch: tweets draw
        # from service_dist in arrival order (single consumer) while the
        # deterministic MergedTopics cost consumes no randomness at all,
        # so the draw sequence is exactly the scalar one.
        if not isinstance(self.list_service, Deterministic):
            return lambda payload: self.service_time(payload, rng)
        list_value = self.list_service.value
        sampler = _BlockSampler(self.service_dist, rng, block_size)
        next_sample = sampler.next
        def service(payload, _merged=MergedTopics):
            if payload.__class__ is _merged:
                return list_value
            return next_sample()
        return service

    def process(self, payload: object):
        if isinstance(payload, MergedTopics):
            self._hot = payload.topics
            return ()
        assert isinstance(payload, Tweet)
        self.tweets_seen += 1
        if any(topic in self._hot for topic in payload.topics):
            self.tweets_passed += 1
            return (payload,)
        return ()


class SentimentUDF(UDF):
    """Classifies an on-topic tweet's sentiment (paper: S, LingPipe).

    ``analyzer`` is shared by every task of the vertex: classification is
    a pure function of the text, so one memo serves the job and a
    scale-up does not start with an empty one.
    """

    def __init__(self, service_dist: Distribution, analyzer: SentimentAnalyzer) -> None:
        super().__init__(service_dist)
        self.analyzer = analyzer

    def process(self, payload: object):
        assert isinstance(payload, Tweet)
        label = self.analyzer.classify(payload.text)
        return (SentimentResult(payload.topics[0], label),)


@dataclass
class TwitterSentimentParams:
    """Scaled-down TwitterSentiment experiment parameters.

    The paper replays two weeks of tweets in 100 minutes peaking at
    6 734 tweets/s on 130 workers; the defaults compress this to a
    ~600 s run peaking around a few hundred tweets/s (see
    EXPERIMENTS.md for the scale mapping).
    """

    n_sources: int = 2
    #: per-source diurnal base rate (tweets/s) and relative amplitude
    base_rate: float = 150.0
    amplitude: float = 0.6
    #: one synthetic "day" in seconds
    period: float = 300.0
    #: load bursts: (start, duration, rate multiplier)
    bursts: Tuple[Tuple[float, float, float], ...] = ((360.0, 45.0, 3.0),)
    #: content bursts: (start, end, topic_index, concentration)
    topic_bursts: Tuple[Tuple[float, float, int, float], ...] = ((360.0, 405.0, 0, 0.8),)
    #: elastic ranges (paper: 1..100 for HT, F, S)
    ht_initial: int = 4
    ht_min: int = 1
    ht_max: int = 40
    filter_initial: int = 4
    filter_min: int = 1
    filter_max: int = 40
    sentiment_initial: int = 4
    sentiment_min: int = 1
    sentiment_max: int = 60
    n_sinks: int = 1
    #: HotTopics window (paper: 200 ms) and top-k list size
    window: float = 0.2
    top_k: int = 10
    #: simulated service costs (mean seconds, cv)
    ht_service: Tuple[float, float] = (0.003, 0.5)
    htm_service: Tuple[float, float] = (0.0005, 0.3)
    filter_service: Tuple[float, float] = (0.003, 0.5)
    filter_list_service: Tuple[float, float] = (0.0002, 0.0)
    sentiment_service: Tuple[float, float] = (0.012, 0.6)
    sink_service: Tuple[float, float] = (0.0005, 0.0)
    #: latency constraints (paper: 215 ms and 30 ms)
    hot_topics_bound: float = 0.215
    sentiment_bound: float = 0.030
    #: tweet-content model
    trace: TweetTraceParams = field(default_factory=TweetTraceParams)


def _dist(spec: Tuple[float, float]) -> Distribution:
    mean, cv = spec
    if cv <= 0 or mean <= 0:
        return Deterministic(mean)
    return Gamma(mean, cv)


def build_twitter_sentiment_job(
    params: Optional[TwitterSentimentParams] = None,
) -> Tuple[JobGraph, List[LatencyConstraint]]:
    """Build the TwitterSentiment job graph and its two constraints."""
    params = params or TwitterSentimentParams()
    trace_params = TweetTraceParams(
        n_topics=params.trace.n_topics,
        zipf_s=params.trace.zipf_s,
        extra_topic_prob=params.trace.extra_topic_prob,
        positive_prob=params.trace.positive_prob,
        negative_prob=params.trace.negative_prob,
        bursts=params.topic_bursts,
    )
    generator = TweetTraceGenerator(trace_params)
    profile = DiurnalRate(
        params.base_rate, params.amplitude, params.period, bursts=params.bursts
    )
    graph = JobGraph("TwitterSentiment")

    def make_source() -> SourceUDF:
        return SourceUDF(generator.generate)

    def make_hot_topics() -> WindowedAggregateUDF:
        source_id = next(_source_ids)

        def create() -> Dict[str, int]:
            return {}

        def add(acc: Dict[str, int], tweet: Tweet) -> Dict[str, int]:
            for topic in tweet.topics:
                acc[topic] = acc.get(topic, 0) + 1
            return acc

        def finalize(acc: Dict[str, int]):
            top = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[: params.top_k]
            return (TopicList(source_id, tuple(top)),)

        return WindowedAggregateUDF(
            params.window, create, add, finalize, service_dist=_dist(params.ht_service)
        )

    def make_merger() -> HotTopicsMergerUDF:
        return HotTopicsMergerUDF(
            params.top_k, staleness=4 * params.window, service_dist=_dist(params.htm_service)
        )

    def make_filter() -> TopicFilterUDF:
        return TopicFilterUDF(_dist(params.filter_service), _dist(params.filter_list_service))

    analyzer = SentimentAnalyzer()

    def make_sentiment() -> SentimentUDF:
        return SentimentUDF(_dist(params.sentiment_service), analyzer)

    def make_sink() -> SinkUDF:
        counts: Dict[Tuple[str, str], int] = {}

        def on_item(payload: object) -> None:
            assert isinstance(payload, SentimentResult)
            key = (payload.topic, payload.label)
            counts[key] = counts.get(key, 0) + 1

        sink = SinkUDF(on_item, service_dist=_dist(params.sink_service))
        sink.sentiment_counts = counts
        return sink

    ts = graph.add_vertex("TweetSource", make_source, parallelism=params.n_sources)
    ht = graph.add_vertex(
        "HotTopics", make_hot_topics,
        parallelism=params.ht_initial,
        min_parallelism=params.ht_min,
        max_parallelism=params.ht_max,
    )
    htm = graph.add_vertex("HotTopicsMerger", make_merger, parallelism=1)
    flt = graph.add_vertex(
        "Filter", make_filter,
        parallelism=params.filter_initial,
        min_parallelism=params.filter_min,
        max_parallelism=params.filter_max,
    )
    snt = graph.add_vertex(
        "Sentiment", make_sentiment,
        parallelism=params.sentiment_initial,
        min_parallelism=params.sentiment_min,
        max_parallelism=params.sentiment_max,
    )
    sink = graph.add_vertex("Sink", make_sink, parallelism=params.n_sinks)

    e4 = graph.connect(ts, ht, pattern="round_robin")
    e5 = graph.connect(ht, htm, pattern="round_robin")
    e6 = graph.connect(htm, flt, pattern="broadcast")
    e1 = graph.connect(ts, flt, pattern="round_robin")
    e2 = graph.connect(flt, snt, pattern="round_robin")
    e3 = graph.connect(snt, sink, pattern="round_robin")
    ts.rate_profile = profile

    constraint_one = LatencyConstraint(
        JobSequence([e4, ht, e5, htm, e6, flt]),
        bound=params.hot_topics_bound,
        name="constraint-1(hot-topics)",
    )
    constraint_two = LatencyConstraint(
        JobSequence([e1, flt, e2, snt, e3]),
        bound=params.sentiment_bound,
        name="constraint-2(sentiment)",
    )
    return graph, [constraint_one, constraint_two]
