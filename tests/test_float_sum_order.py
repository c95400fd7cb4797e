"""Exported floats do not depend on how the interpreter rounds ``sum()``.

CPython's ``sum()`` adds floats plainly before 3.12 and with compensation
from 3.12 on, so a float ``sum()`` on an exported or decided-on path makes
the goldens depend on the interpreter. These tests replay the three golden
scenarios with ``builtins.sum`` replaced by ``math.fsum`` (correctly
rounded, so unlike either) for float input, and require the exports to
match the goldens byte for byte: every such sum is
``repro.qos.stats.sum_in_order`` or ``mean_in_order`` instead.
"""

from __future__ import annotations

import builtins
import math
import os

import pytest

import golden_macro_scenario
import golden_scenario
import golden_stateful_scenario

_builtin_sum = builtins.sum


def _fsum_for_floats(iterable, start=0):
    values = list(iterable)
    if isinstance(start, (int, float)) and any(isinstance(v, float) for v in values):
        return math.fsum([start, *values])
    return _builtin_sum(values, start)


@pytest.mark.parametrize(
    "scenario",
    [golden_scenario, golden_macro_scenario, golden_stateful_scenario],
    ids=["golden", "macro", "stateful"],
)
def test_exports_do_not_depend_on_float_sum_rounding(scenario, tmp_path, monkeypatch):
    monkeypatch.setattr(builtins, "sum", _fsum_for_floats)
    scenario.run_scenario(str(tmp_path))
    monkeypatch.undo()
    for name in scenario.GOLDEN_FILES:
        with open(os.path.join(scenario.GOLDEN_DIR, name), "rb") as handle:
            golden = handle.read()
        assert (tmp_path / name).read_bytes() == golden, f"{name} moved under fsum"
