"""Experiment harnesses reproducing the paper's tables and figures.

One module per paper artifact (see DESIGN.md's experiment index):

* :mod:`repro.experiments.fig3_motivation` — Fig. 3, the four static
  configurations under step load;
* :mod:`repro.experiments.fig5_surface` — Fig. 5, the Rebalance
  solution-candidate surface;
* :mod:`repro.experiments.fig6_primetester` — Fig. 6 + the in-text
  task-hour table, elastic vs. unelastic PrimeTester;
* :mod:`repro.experiments.fig8_twitter` — Fig. 8, TwitterSentiment with
  reactive scaling;
* :mod:`repro.experiments.compare_policies` — Sec. VI quantified, the
  step-load PrimeTester under four scaling policies;
* :mod:`repro.experiments.sensitivity` — the strategy's own control
  parameters swept on the same job;
* :mod:`repro.experiments.validation` — the engine against queueing
  theory on a two-stage tandem;
* :mod:`repro.experiments.ablations` — the fitting coefficient, the
  queue-wait share and the inactivity phase each switched off or moved.

Each module exposes a ``run(...)`` function returning a result object
with the same rows/series the paper reports (``report()`` /
``series_csv(path)``). A figure is a list of runs and a report: every
engine comes from :func:`repro.experiments.recording.deploy`, and
:data:`FIGURES` names each module, its params class and its CSV artefact
for the one command line, ``repro experiment``, the only writer of
``results/``.
"""

from repro import _lazy_exports

_EXPORTS = {
    "SeriesRecorder": "repro.experiments.recording",
    "SeriesRow": "repro.experiments.recording",
    "Recording": "repro.experiments.recording",
    "deploy": "repro.experiments.recording",
    "FIGURES": "repro.experiments.report",
    "format_table": "repro.experiments.report",
    "write_csv": "repro.experiments.report",
    "sparkline": "repro.experiments.ascii",
    "series_panel": "repro.experiments.ascii",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
