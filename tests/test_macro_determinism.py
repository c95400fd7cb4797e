"""Byte-identity regression wall for the macro (TwitterSentiment) scenario.

Replays the pinned golden macro scenario
(``tests/golden_macro_scenario.py``) — a short elastic TwitterSentiment
run with a mid-run load burst and topic burst — and diffs its
``export_run`` artifacts byte-for-byte against the committed copies in
``tests/golden/macro/``. This wall pins the vectorized engine fast path:
any change to the source→channel→task event ordering, block-sampled RNG
stream consumption or deferred reporter statistics shows up as a diff.

On top of the golden replay and the double-run check, the scenario is
replayed with ``make_service_sampler`` patched to return the per-item
wrapper (the sampler a UDF overriding ``service_time`` gets), so every
task draws per item through the scalar ``service_time`` call — the
reference the block-drawn path must match byte for byte.

Intentional behavior changes must regenerate the goldens via
``PYTHONPATH=src python tests/golden_macro_scenario.py --write`` and say
so in the PR description.
"""

from __future__ import annotations

import json
import os

import pytest

from golden_macro_scenario import GOLDEN_DIR, GOLDEN_FILES, run_scenario

from repro.engine.udf import UDF
from repro.workloads.twitter_job import TopicFilterUDF


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _first_diff_line(golden: bytes, fresh: bytes) -> str:
    golden_lines = golden.splitlines()
    fresh_lines = fresh.splitlines()
    for index, (g, f) in enumerate(zip(golden_lines, fresh_lines)):
        if g != f:
            return (
                f"first diff at line {index + 1}:\n"
                f"  golden: {g[:200]!r}\n"
                f"  fresh:  {f[:200]!r}"
            )
    return (
        f"line counts differ: golden={len(golden_lines)} fresh={len(fresh_lines)}"
    )


@pytest.fixture(scope="module")
def fresh_export(tmp_path_factory):
    """One replay of the macro golden scenario, shared module-wide."""
    export_dir = str(tmp_path_factory.mktemp("macro_golden_replay"))
    run_scenario(export_dir)
    return export_dir


class TestMacroGoldenByteIdentity:
    def test_golden_files_exist(self):
        for name in GOLDEN_FILES:
            assert os.path.isfile(os.path.join(GOLDEN_DIR, name)), (
                f"missing golden file {name}; regenerate with "
                f"PYTHONPATH=src python tests/golden_macro_scenario.py --write"
            )

    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_replay_is_byte_identical(self, fresh_export, name):
        golden = _read_bytes(os.path.join(GOLDEN_DIR, name))
        fresh = _read_bytes(os.path.join(fresh_export, name))
        assert fresh == golden, (
            f"{name} diverged from the golden copy "
            f"({_first_diff_line(golden, fresh)})"
        )

    def test_golden_pins_real_elastic_scaling(self):
        """The pinned run actually scales through the burst."""
        with open(os.path.join(GOLDEN_DIR, "trace.jsonl")) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        applied = [r for r in records if r.get("p_applied")]
        assert applied, "golden trace shows no applied scaling decisions"
        with open(os.path.join(GOLDEN_DIR, "manifest.json")) as handle:
            manifest = json.load(handle)
        final = manifest["final_parallelism"]
        assert final["Sentiment"] > 4, "burst never scaled Sentiment up"
        assert manifest["virtual_time_s"] == 40.0
        assert len(manifest["constraints"]) == 2


@pytest.fixture(scope="module")
def scalar_export(tmp_path_factory):
    """One replay with every block sampler off (scalar reference path)."""
    export_dir = str(tmp_path_factory.mktemp("macro_scalar_replay"))
    opted_out = []

    def scalar_sampler(self, rng, block_size=None):
        opted_out.append(type(self).__name__)
        return lambda payload: self.service_time(payload, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(UDF, "make_service_sampler", scalar_sampler)
        patch.setattr(TopicFilterUDF, "make_service_sampler", scalar_sampler)
        run_scenario(export_dir)
    assert "TopicFilterUDF" in opted_out and len(set(opted_out)) > 1
    return export_dir


class TestMacroVectorizationIdentity:
    @pytest.mark.parametrize("name", GOLDEN_FILES)
    def test_scalar_engine_exports_the_same_bytes(self, fresh_export, scalar_export, name):
        """Per-item ``service_time`` draws replay to identical artifacts."""
        a = _read_bytes(os.path.join(fresh_export, name))
        b = _read_bytes(os.path.join(scalar_export, name))
        assert a == b, (
            f"{name} differs between block-drawn and scalar service times "
            f"({_first_diff_line(a, b)})"
        )


class TestMacroDoubleRunIdentity:
    def test_two_replays_are_byte_identical(self, fresh_export, tmp_path):
        """Same-seed determinism: two in-process runs export identical bytes."""
        second = str(tmp_path / "second")
        run_scenario(second)
        for name in GOLDEN_FILES:
            a = _read_bytes(os.path.join(fresh_export, name))
            b = _read_bytes(os.path.join(second, name))
            assert a == b, f"{name} differs between two same-seed runs"
