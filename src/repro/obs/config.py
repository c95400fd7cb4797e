"""The single observability opt-in surface.

One :class:`ObservabilityConfig` replaces per-call keyword sprawl: it is
accepted by ``StreamProcessingEngine(config, observability=...)``,
produced by ``PipelineBuilder.observe(...)`` (adopted by the engine at
submit when the engine has none of its own), and populated from the
``--obs-dir`` CLI flag shared by the ``run``/``chaos``/``trace``
subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to observe and where to export it."""

    #: collect engine metrics (registry + periodic sampler)
    metrics: bool = True
    #: record scaler decision traces (one DecisionTrace per job)
    trace: bool = True
    #: directory for manifest.json / metrics.jsonl / trace.jsonl
    #: (None = in-memory only; export explicitly via engine.export_run)
    export_dir: Optional[str] = None
    #: metrics sampling interval in virtual seconds
    sample_interval: float = 5.0
    #: write ``wall_time_s: 0.0`` into exported manifests instead of the
    #: real wall-clock duration — the only nondeterministic manifest
    #: field; pin it when diffing same-seed runs byte-for-byte
    pin_wall_time: bool = False

    def __post_init__(self) -> None:
        if self.sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive (got {self.sample_interval})"
            )
