"""Unit tests for the TwitterSentiment job (Fig. 7 topology and UDFs)."""

import pytest

from repro.simulation.randomness import Deterministic
from repro.workloads.sentiment import SentimentAnalyzer
from repro.workloads.tweets import Tweet
from repro.workloads.twitter_job import (
    HotTopicsMergerUDF,
    MergedTopics,
    SentimentResult,
    SentimentUDF,
    TopicFilterUDF,
    TopicList,
    TwitterSentimentParams,
    build_twitter_sentiment_job,
)


def tweet(*topics, text="watching {}"):
    return Tweet(text.format(topics[0]), tuple(topics), "user1")


class TestTopology:
    def test_vertices(self):
        graph, constraints = build_twitter_sentiment_job()
        assert set(graph.vertices) == {
            "TweetSource", "HotTopics", "HotTopicsMerger", "Filter", "Sentiment", "Sink",
        }

    def test_edges_and_patterns(self):
        graph, _ = build_twitter_sentiment_job()
        assert graph.edge_between("HotTopicsMerger", "Filter").pattern == "broadcast"
        assert graph.edge_between("TweetSource", "Filter").pattern == "round_robin"
        assert len(graph.edges) == 6

    def test_elastic_vertices(self):
        graph, _ = build_twitter_sentiment_job()
        for name in ("HotTopics", "Filter", "Sentiment"):
            assert graph.vertex(name).elastic, name
        for name in ("TweetSource", "HotTopicsMerger", "Sink"):
            assert not graph.vertex(name).elastic, name

    def test_constraints_match_paper(self):
        _, constraints = build_twitter_sentiment_job()
        one, two = constraints
        assert one.bound == pytest.approx(0.215)
        assert one.sequence.vertex_names() == ["HotTopics", "HotTopicsMerger", "Filter"]
        assert two.bound == pytest.approx(0.030)
        assert two.sequence.vertex_names() == ["Filter", "Sentiment"]
        assert [e.name for e in two.sequence.edges] == [
            "TweetSource->Filter", "Filter->Sentiment", "Sentiment->Sink",
        ]

    def test_source_profile_attached(self):
        graph, _ = build_twitter_sentiment_job()
        assert graph.vertex("TweetSource").rate_profile is not None

    def test_params_respected(self):
        params = TwitterSentimentParams(ht_initial=7, sentiment_max=33)
        graph, _ = build_twitter_sentiment_job(params)
        assert graph.vertex("HotTopics").parallelism == 7
        assert graph.vertex("Sentiment").max_parallelism == 33


class FakeSimTask:
    """Minimal host for UDFs needing a clock."""

    class _Sim:
        now = 0.0

    def __init__(self):
        self.sim = self._Sim()


class TestHotTopicsMerger:
    def make(self, staleness=1.0):
        udf = HotTopicsMergerUDF(top_k=3, staleness=staleness, service_dist=Deterministic(0))
        host = FakeSimTask()
        udf.open(host)
        return udf, host

    def test_merges_partials(self):
        udf, _ = self.make()
        udf.process(TopicList(1, (("#a", 5), ("#b", 2))))
        (merged,) = udf.process(TopicList(2, (("#b", 4), ("#c", 1))))
        assert isinstance(merged, MergedTopics)
        assert merged.topics == frozenset({"#a", "#b", "#c"})

    def test_latest_partial_per_source_wins(self):
        udf, _ = self.make()
        udf.process(TopicList(1, (("#a", 10),)))
        (merged,) = udf.process(TopicList(1, (("#z", 1),)))
        assert merged.topics == frozenset({"#z"})

    def test_top_k_enforced(self):
        udf, _ = self.make()
        counts = tuple((f"#t{i}", 10 - i) for i in range(6))
        (merged,) = udf.process(TopicList(1, counts))
        assert len(merged.topics) == 3
        assert "#t0" in merged.topics

    def test_stale_partials_expire(self):
        udf, host = self.make(staleness=1.0)
        udf.process(TopicList(1, (("#old", 99),)))
        host.sim.now = 5.0
        (merged,) = udf.process(TopicList(2, (("#new", 1),)))
        assert merged.topics == frozenset({"#new"})


class TestTopicFilter:
    def make(self):
        return TopicFilterUDF(Deterministic(0.001), Deterministic(0.0001))

    def test_drops_off_topic_tweets(self):
        udf = self.make()
        udf.process(MergedTopics(("#hot",)))
        assert list(udf.process(tweet("#cold"))) == []
        assert udf.tweets_seen == 1
        assert udf.tweets_passed == 0

    def test_forwards_on_topic_tweets(self):
        udf = self.make()
        udf.process(MergedTopics(("#hot",)))
        t = tweet("#hot", "#other")
        assert list(udf.process(t)) == [t]
        assert udf.tweets_passed == 1

    def test_topic_list_updates_state_silently(self):
        udf = self.make()
        assert list(udf.process(MergedTopics(("#a",)))) == []

    def test_no_topics_drops_everything(self):
        udf = self.make()
        assert list(udf.process(tweet("#any"))) == []

    def test_service_time_cheaper_for_lists(self, rng):
        udf = self.make()
        assert udf.service_time(MergedTopics(("#a",)), rng) == pytest.approx(0.0001)
        assert udf.service_time(tweet("#a"), rng) == pytest.approx(0.001)


class TestSentimentUDF:
    def test_classifies_first_topic(self):
        udf = SentimentUDF(Deterministic(0.001), SentimentAnalyzer())
        (result,) = udf.process(tweet("#x", text="i love {}"))
        assert isinstance(result, SentimentResult)
        assert result.topic == "#x"
        assert result.label == "positive"

    def test_a_job_scores_each_text_once_across_its_tasks(self, monkeypatch):
        graph, _ = build_twitter_sentiment_job()
        factory = graph.vertex("Sentiment").udf_factory
        first, scaled_up = factory(), factory()
        assert first.analyzer is scaled_up.analyzer
        scored = []
        analyzer = first.analyzer
        real_score = analyzer.score
        monkeypatch.setattr(
            analyzer, "score", lambda text: scored.append(text) or real_score(text)
        )
        for udf in (first, scaled_up):
            (result,) = udf.process(tweet("#x", text="i love {}"))
            assert result.label == "positive"
        assert scored == ["i love #x"]
        assert build_twitter_sentiment_job()[0].vertex("Sentiment").udf_factory().analyzer \
            is not analyzer


class TestSinkCounting:
    def test_sentiment_counts_accumulate(self):
        graph, _ = build_twitter_sentiment_job()
        sink = graph.vertex("Sink").udf_factory()
        sink.process(SentimentResult("#a", "positive"))
        sink.process(SentimentResult("#a", "positive"))
        sink.process(SentimentResult("#b", "negative"))
        assert sink.sentiment_counts[("#a", "positive")] == 2
        assert sink.sentiment_counts[("#b", "negative")] == 1
