"""Pinned-seed benchmark harness (``python -m repro bench``).

See :mod:`repro.bench.core` for the benchmark inventory and
:mod:`repro.bench.legacy` for the frozen pre-fast-path kernel baseline.
"""

from repro import _lazy_exports

_EXPORTS = {
    "BENCH_FILE": "repro.bench.core",
    "BENCH_SCHEMA_VERSION": "repro.bench.core",
    "check_regression": "repro.bench.core",
    "format_results": "repro.bench.core",
    "load_results": "repro.bench.core",
    "run_benchmarks": "repro.bench.core",
    "write_results": "repro.bench.core",
}
__getattr__, __dir__, __all__ = _lazy_exports(__name__, _EXPORTS)
