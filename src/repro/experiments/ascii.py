"""ASCII chart rendering for experiment reports (no plotting deps).

The harnesses print time series; these helpers render them readably in a
terminal: one-line sparklines, labelled sparkline panels for the
figures' latency / throughput / parallelism series, and the comparison
report's spread bars.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Optional[float]], width: Optional[int] = None) -> str:
    """Render a series as one line of block characters.

    ``None`` values render as spaces; ``width`` (optional) downsamples by
    bucket means. Returns an empty string for an empty series.
    """
    points = list(values)
    if not points:
        return ""
    if width is not None and width > 0 and len(points) > width:
        points = _downsample(points, width)
    present = [v for v in points if v is not None]
    if not present:
        return " " * len(points)
    low = min(present)
    high = max(present)
    span = high - low
    chars = []
    for value in points:
        if value is None:
            chars.append(" ")
            continue
        if span <= 0:
            chars.append(_SPARK_LEVELS[0])
            continue
        index = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
        chars.append(_SPARK_LEVELS[index])
    return "".join(chars)


def _downsample(points: List[Optional[float]], width: int) -> List[Optional[float]]:
    buckets: List[Optional[float]] = []
    size = len(points) / width
    for i in range(width):
        chunk = [
            v for v in points[int(i * size) : max(int(i * size) + 1, int((i + 1) * size))]
            if v is not None
        ]
        buckets.append(sum(chunk) / len(chunk) if chunk else None)
    return buckets


def spread_bar(
    minimum: float,
    median: float,
    p95: float,
    maximum: float,
    lo: float,
    hi: float,
    width: int = 60,
) -> str:
    """Render one box-plot-style spread row on a shared ``[lo, hi]`` scale.

    Whiskers (``-``) span min..max, the box (``=``) spans median..p95
    (the tail side a latency regression grows into), ``|`` caps the
    whiskers and ``O`` marks the median::

        |-----O====]------|

    Used by the comparison report to put a baseline's spread and every
    candidate's on one scale. Degenerate scales (``hi <= lo``) render a
    single mark.
    """
    if width < 3:
        raise ValueError("width must be >= 3")
    span = hi - lo
    if span <= 0:
        return "O"

    def pos(value: float) -> int:
        clamped = min(max(value, lo), hi)
        return int(round((clamped - lo) / span * (width - 1)))

    chars = [" "] * width
    for i in range(pos(minimum), pos(maximum) + 1):
        chars[i] = "-"
    for i in range(pos(median), pos(p95) + 1):
        chars[i] = "="
    chars[pos(minimum)] = "|"
    chars[pos(maximum)] = "|"
    if pos(p95) != pos(maximum):
        chars[pos(p95)] = "]"
    chars[pos(median)] = "O"
    return "".join(chars)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:.0f}"
    if magnitude >= 1:
        return f"{value:.1f}"
    return f"{value:.3g}"


def series_panel(
    title: str,
    named_series: Sequence[tuple],
    width: int = 60,
) -> str:
    """A compact dashboard: one labelled sparkline per series."""
    lines = [title]
    label_width = max((len(name) for name, _ in named_series), default=0)
    for name, values in named_series:
        present = [v for v in values if v is not None]
        if present:
            suffix = f"  min {_fmt(min(present))}  max {_fmt(max(present))}"
        else:
            suffix = "  (no data)"
        lines.append(f"  {name:<{label_width}}  {sparkline(values, width)}{suffix}")
    return "\n".join(lines)
