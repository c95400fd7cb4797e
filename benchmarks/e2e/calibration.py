"""Calibration: how fast is this box right now?

The 2-core reference box is a shared VM whose speed shifts by up to
1.7x for seconds to minutes at a time. Raw wall times of the same job
therefore spread by 15-25 % between runs, which no regression bound
survives. Every timed piece of work is bracketed by a short, fixed,
simulator-like loop, and its wall time is rescaled by that reading to
*reference seconds*: what it would have taken at the reference box's
undisturbed speed. The same seed then reads within a few percent from
run to run, and numbers from different boxes are roughly comparable.
"""

from __future__ import annotations

import heapq
import sys
import time
from typing import List

#: what calibrate() reads on the 2-core reference box at its fastest;
#: host times are rescaled to it
REFERENCE_CALIBRATION_S = 0.00225

ARITHMETIC_LOOPS = 20_000
HEAP_LOOPS = 1_000
WORKING_SET_OBJECTS = 1 << 15


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.link = None


_CELLS: List[_Cell] = []


def _one_reading() -> float:
    cells, mask = _CELLS, WORKING_SET_OBJECTS - 1
    push, pop = heapq.heappush, heapq.heappop
    started = time.perf_counter()
    total = 0
    for index in range(ARITHMETIC_LOOPS):
        total += index & 3
    heap: List[tuple] = []
    for index in range(HEAP_LOOPS):
        push(heap, (index * 0.37 % 1.0, index, _Cell(index, 0.5)))
        if index & 1:
            total += pop(heap)[1]
    heap.clear()
    for index in range(HEAP_LOOPS):
        cell = cells[(index * 7919) & mask]
        cell.link = _Cell(index, cell.value)
        push(heap, (cell.value * 0.37 % 1.0, index, cell))
        if index & 1:
            total += pop(heap)[2].link.key
    return time.perf_counter() - started


def calibrate(samples: int = 1) -> float:
    """Seconds a fixed loop takes right now (median of ``samples``).

    A third each of plain bytecode arithmetic, heap pushes and pops
    with small-object allocation, and the same over strided reads of a
    few MB of objects: what the simulator's hot path is made of. No
    single one of the three tracked all six workloads under the box's
    disturbances; together they bring the run-to-run spread of one
    job's total from 10-65 % (range) to 4-25 %.
    """
    if not _CELLS:
        _CELLS.extend(_Cell(i, float(i)) for i in range(WORKING_SET_OBJECTS))
    timings = sorted(_one_reading() for _ in range(samples))
    return timings[len(timings) // 2]


def reference_seconds(wall_s: float, calibration_s: float) -> float:
    """Wall seconds rescaled to the reference box's undisturbed speed.

    The calibration loop was timed right beside the measured work, so
    ``calibration_s / REFERENCE_CALIBRATION_S`` is how much slower than
    the reference the box was at that moment.
    """
    return wall_s * REFERENCE_CALIBRATION_S / calibration_s


def main() -> None:
    """Print ``<monotonic time> <calibration>`` lines until terminated.

    ``worker.py`` runs this beside ``run_sweep``: the pool's workers run
    in other processes, so the box's speed during a grid can only be
    sampled from outside them.
    """
    interval = float(sys.argv[1])
    while True:
        reading = calibrate()
        sys.stdout.write(f"{time.monotonic()!r} {reading!r}\n")
        sys.stdout.flush()
        time.sleep(interval)


if __name__ == "__main__":
    main()
