"""Workloads: the paper's two evaluation jobs plus their load generators.

* :mod:`repro.workloads.rates` — rate profiles: the PrimeTester step
  phases (warm-up / increment / plateau / decrement, Sec. III-A) and the
  diurnal + burst tweet-rate model (Sec. V-B);
* :mod:`repro.workloads.primetester` — the PrimeTester job (Fig. 2);
* :mod:`repro.workloads.tweets` — a synthetic Twitter trace generator
  (substitute for the paper's 69 GB two-week dataset);
* :mod:`repro.workloads.sentiment` — a lexicon-based sentiment analyzer
  (substitute for LingPipe);
* :mod:`repro.workloads.twitter_job` — the TwitterSentiment job (Fig. 7)
  with the paper's two latency constraints.
"""

from repro import _lazy_exports

_EXPORTS = {
    "RateProfile": "repro.workloads.rates",
    "ConstantRate": "repro.workloads.rates",
    "PiecewiseRate": "repro.workloads.rates",
    "DiurnalRate": "repro.workloads.rates",
    "step_phase_segments": "repro.workloads.rates",
    "PrimeTesterParams": "repro.workloads.primetester",
    "build_primetester_job": "repro.workloads.primetester",
    "is_probable_prime": "repro.workloads.primetester",
    "Tweet": "repro.workloads.tweets",
    "TweetTraceGenerator": "repro.workloads.tweets",
    "TweetTraceParams": "repro.workloads.tweets",
    "SentimentAnalyzer": "repro.workloads.sentiment",
    "SENTIMENT_LEXICON": "repro.workloads.sentiment",
    "TwitterSentimentParams": "repro.workloads.twitter_job",
    "build_twitter_sentiment_job": "repro.workloads.twitter_job",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
