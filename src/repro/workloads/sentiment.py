"""A lexicon-based sentiment analyzer (substitute for LingPipe).

The paper classifies each on-topic tweet as positive / neutral / negative
with the LingPipe library. For the reproduction only the classifier's
*existence* and service cost matter to the experiments, but we keep a
real (if simple) implementation so the example applications produce
meaningful output: token-level lexicon scoring with negation handling.
"""

from __future__ import annotations

import re
from typing import Dict, Tuple

#: a compact polarity lexicon (score in [-2, 2])
SENTIMENT_LEXICON: Dict[str, int] = {
    "love": 2, "loved": 2, "awesome": 2, "amazing": 2, "excellent": 2,
    "fantastic": 2, "wonderful": 2, "best": 2, "perfect": 2, "brilliant": 2,
    "great": 1, "good": 1, "nice": 1, "happy": 1, "cool": 1, "like": 1,
    "enjoy": 1, "fun": 1, "win": 1, "winning": 1, "glad": 1, "excited": 1,
    "bad": -1, "boring": -1, "slow": -1, "meh": -1, "sad": -1, "annoying": -1,
    "dislike": -1, "lost": -1, "losing": -1, "tired": -1, "angry": -1,
    "hate": -2, "hated": -2, "awful": -2, "terrible": -2, "horrible": -2,
    "worst": -2, "disaster": -2, "broken": -2, "fail": -2, "disgusting": -2,
}

#: words that flip the polarity of the following token
NEGATIONS = frozenset({"not", "no", "never", "isnt", "dont", "cant", "wont"})

_TOKEN_RE = re.compile(r"[a-z']+")

POSITIVE = "positive"
NEUTRAL = "neutral"
NEGATIVE = "negative"


class SentimentAnalyzer:
    """Classifies text into positive / neutral / negative."""

    #: classify() memo cap. Templated tweet text repeats heavily: a 240 s
    #: TwitterSentiment run classifies 46 583 tweets with 9 674 distinct
    #: texts, and the job's Sentiment tasks share one analyzer
    #: (:class:`~repro.workloads.twitter_job.SentimentUDF`)
    _CACHE_MAX = 65536

    def __init__(self, lexicon: Dict[str, int] = None, threshold: int = 1) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1 (got {threshold})")
        self.lexicon = lexicon if lexicon is not None else SENTIMENT_LEXICON
        self.threshold = threshold
        self._classify_cache: Dict[str, str] = {}

    def score(self, text: str) -> int:
        """Summed lexicon score of the text, with one-token negation."""
        total = 0
        negate = False
        for token in _TOKEN_RE.findall(text.lower()):
            token = token.replace("'", "")
            if token in NEGATIONS:
                negate = True
                continue
            value = self.lexicon.get(token, 0)
            if negate:
                value = -value
                negate = False
            total += value
        return total

    def classify(self, text: str) -> str:
        """Three-way classification by thresholded score (memoized)."""
        cache = self._classify_cache
        label = cache.get(text)
        if label is not None:
            return label
        value = self.score(text)
        if value >= self.threshold:
            label = POSITIVE
        elif value <= -self.threshold:
            label = NEGATIVE
        else:
            label = NEUTRAL
        if len(cache) < self._CACHE_MAX:
            cache[text] = label
        return label

    def classify_with_score(self, text: str) -> Tuple[str, int]:
        """``(label, score)`` in one pass-equivalent call."""
        value = self.score(text)
        if value >= self.threshold:
            return POSITIVE, value
        if value <= -self.threshold:
            return NEGATIVE, value
        return NEUTRAL, value
