"""Plain-text reporting and CSV/JSON export for experiment results.

The harnesses print the same rows/series the paper's figures show; these
helpers keep the formatting consistent and write machine-readable CSVs
next to the console output when asked. :func:`write_json` is the
canonical JSON writer shared with the sweep orchestrator — sorted keys,
two-space indent, trailing newline, written atomically — so repeated
runs of deterministic data diff byte-for-byte.

:data:`FIGURES` is the one table of paper artefacts and :func:`main` the
one command line: ``python -m repro.experiments.<module>`` and ``repro
experiment`` are both :func:`run_figure` — run, print the report, write
the CSV.
"""

from __future__ import annotations

import csv
import importlib
import json
import os
from typing import Iterable, List, NamedTuple, Optional, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.2f}"
        return f"{cell:.4f}"
    return str(cell)


def write_csv(path: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Write rows to ``path`` (directories are created); returns the path."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            writer.writerow(["" if cell is None else cell for cell in row])
    return path


def write_text(path: str, payload: str) -> str:
    """Write ``payload`` atomically (tmp + rename); returns the path.

    The single canonical text writer: every evaluation artifact (sweep
    checkpoints, aggregates, baselines, comparison JSON/HTML, manifests)
    routes through here, so readers never observe a half-written file
    and identical payloads produce byte-identical files across
    platforms (UTF-8, ``\\n`` newlines, no platform translation).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(payload)
    os.replace(tmp_path, path)
    return path


def write_json(path: str, data: object) -> str:
    """Write ``data`` as canonical JSON, atomically; returns the path.

    Canonical means sorted keys, two-space indentation, ``allow_nan``
    off and a trailing newline — byte-stable for deterministic inputs.
    Delegates to :func:`write_text` for the tmp-file + rename dance
    (the sweep treats file presence as completion).
    """
    payload = json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return write_text(path, payload)


def ms(value: Optional[float]) -> Optional[float]:
    """Seconds → milliseconds (None-preserving)."""
    return None if value is None else value * 1000.0


class Figure(NamedTuple):
    """One paper artefact: where it is computed and what it leaves behind."""

    #: the harness module (``run(params)`` -> result with ``report()`` / ``series_csv()``)
    module: str
    #: its params class with a ``quick()`` variant (None = one scale only)
    params: Optional[str]
    #: the CSV's file name under ``results/``
    artefact: str
    #: what the CSV holds, for the ``<holds> written to PATH`` line
    holds: str


#: every figure ``repro experiment`` knows, in ``all`` order
FIGURES = {
    "fig3": Figure("repro.experiments.fig3_motivation", "Fig3Params", "fig3_series.csv", "series"),
    "fig5": Figure("repro.experiments.fig5_surface", None, "fig5_surface.csv", "surface"),
    "fig6": Figure("repro.experiments.fig6_primetester", "Fig6Params", "fig6_series.csv", "series"),
    "fig8": Figure("repro.experiments.fig8_twitter", "Fig8Params", "fig8_series.csv", "series"),
    "sensitivity": Figure("repro.experiments.sensitivity", "SensitivityParams", "sensitivity.csv", "sweep"),
    "validation": Figure("repro.experiments.validation", None, "validation.csv", "sweep"),
    "policies": Figure("repro.experiments.compare_policies", "CompareParams", "policies.csv", "outcomes"),
}

QUICK_HELP = "reduced-scale variant (fig5 and validation have one scale: the full run)"


def run_figure(name: str, quick: bool = False, csv_path: Optional[str] = None, **run_options) -> None:
    """Run one figure, print its report and, with ``csv_path``, write its CSV."""
    figure = FIGURES[name]
    module = importlib.import_module(figure.module)
    params = None
    if figure.params is not None:
        params = getattr(module, figure.params)()
        if quick:
            params = params.quick()
    result = module.run(params, **run_options)
    print(result.report())
    if csv_path is not None:
        print(f"{figure.holds} written to {result.series_csv(csv_path)}")


def main(name: str, argv: Optional[Sequence[str]] = None) -> int:
    """CLI of one harness module: ``[--quick] [--csv PATH]`` (fig6: ``[--no-sweep]``).

    Arguments are parsed before anything runs: a forgotten ``--csv``
    value or a misspelt flag exits 2 instead of costing a full run.
    """
    import argparse  # here, not at the top: every sweep shard imports this module

    parser = argparse.ArgumentParser(prog=f"python -m {FIGURES[name].module}")
    parser.add_argument("--quick", action="store_true", help=QUICK_HELP)
    parser.add_argument("--csv", metavar="PATH", help=f"write the {FIGURES[name].holds} CSV to PATH")
    if name == "fig6":
        parser.add_argument("--no-sweep", action="store_true",
                            help="skip the task-hour sweep over higher bounds")
    args = parser.parse_args(argv)
    options = {"sweep": False} if getattr(args, "no_sweep", False) else {}
    run_figure(name, args.quick, args.csv, **options)
    return 0
