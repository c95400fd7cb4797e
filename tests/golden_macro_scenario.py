"""The pinned macro (TwitterSentiment) scenario behind its byte-identity test.

``tests/golden/macro/`` holds the ``export_run`` artifacts (manifest,
scaler decision trace, metrics) of a short elastic TwitterSentiment run —
the same six-vertex job the macro benchmark and the paper's Fig. 8 use,
compressed to two synthetic "days" with a load burst and a topic burst.
This is the determinism wall for the vectorized engine fast path: the
source→channel→task hot path, block-sampled service times and deferred
reporter statistics all feed these bytes, so any change to event
ordering or RNG stream consumption shows up as a diff.

``tests/test_macro_determinism.py`` replays the scenario on every run,
diffs the export byte-for-byte against the golden copies, and replays it
again with every UDF's block sampler switched off (per-item
``service_time`` calls) to prove block-drawn service times are
bit-identical to scalar draws end to end.

Regenerating the goldens (only when a PR *intentionally* changes
behavior — say so in the PR description)::

    PYTHONPATH=src python tests/golden_macro_scenario.py --write
"""

from __future__ import annotations

import os
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "macro")

#: the export files pinned by the golden copies
GOLDEN_FILES = ("manifest.json", "trace.jsonl", "metrics.jsonl")

SCENARIO_SEED = 23
SCENARIO_DURATION = 40.0
#: total tweet rate across the two sources (tweets/s)
SCENARIO_RATE = 200.0


def run_scenario(export_dir: str):
    """Run the pinned macro scenario and export into ``export_dir``.

    A 40 s elastic TwitterSentiment run (two sources at 100 tweets/s
    base each, two synthetic days, one load burst and one topic burst at
    mid-run) with both paper constraints active.
    """
    from repro.actuation.config import ActuationConfig  # noqa: F401 (import parity)
    from repro.builder import BuiltPipeline
    from repro.engine.engine import EngineConfig, StreamProcessingEngine
    from repro.obs.config import ObservabilityConfig
    from repro.workloads.twitter_job import (
        TwitterSentimentParams,
        build_twitter_sentiment_job,
    )

    params = TwitterSentimentParams(
        base_rate=SCENARIO_RATE / 2.0,
        period=SCENARIO_DURATION / 2.0,
        bursts=((SCENARIO_DURATION * 0.5, SCENARIO_DURATION * 0.15, 2.5),),
        topic_bursts=((SCENARIO_DURATION * 0.5, SCENARIO_DURATION * 0.65, 0, 0.8),),
    )
    graph, constraints = build_twitter_sentiment_job(params)
    pipeline = BuiltPipeline(
        graph,
        constraints,
        observability=ObservabilityConfig(export_dir=export_dir, pin_wall_time=True),
    )
    engine = StreamProcessingEngine(
        EngineConfig.nephele_adaptive(elastic=True, seed=SCENARIO_SEED)
    )
    engine.submit(pipeline)
    engine.run(SCENARIO_DURATION)
    return engine.export_run()


def main(argv) -> int:
    if "--write" not in argv:
        print(__doc__)
        return 2
    paths = run_scenario(GOLDEN_DIR)
    for kind, path in sorted(paths.items()):
        print(f"wrote {kind}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
