"""Figure 5 reproduction: the Rebalance solution-candidate surface.

Fig. 5 plots, for three exemplary job vertices, the degrees of
parallelism ``(p1, p2, p3)`` such that ``p3`` is minimal for given
``(p1, p2)`` while the total modelled queue wait stays within the budget
``Ŵ`` — the surface on which the optimization's solution candidates lie,
shaded by total parallelism ``F = p1 + p2 + p3``.

We rebuild the surface from the closed-form latency model: for every
``(p1, p2)`` on a grid, the minimal stable ``p3`` comes from ``P_W`` with
the residual budget. The harness also verifies the paper's observations:
multiple optima may exist, and Rebalance lands on (or near) the
brute-force minimum of the surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.latency_model import INFINITY, SequenceLatencyModel, VertexModel
from repro.core.rebalance import brute_force_minimum, rebalance
from repro.experiments.report import write_csv


@dataclass
class Fig5Params:
    """Three exemplary vertices (arrival rate, service mean, variability)."""

    #: (arrival_rate per task at p=1, service mean, variability term)
    vertices: Tuple[Tuple[float, float, float], ...] = (
        (400.0, 0.004, 0.9),
        (250.0, 0.006, 0.7),
        (600.0, 0.003, 1.1),
    )
    p_max: int = 40
    #: total queue-wait budget Ŵ in seconds
    wait_budget: float = 0.004
    #: grid resolution for the surface
    grid_step: int = 1


def build_models(params: Fig5Params) -> SequenceLatencyModel:
    """Instantiate the three-vertex latency model of the figure."""
    models = []
    for i, (rate, service, variability) in enumerate(params.vertices, start=1):
        models.append(
            VertexModel(
                f"jv{i}",
                p_current=1,
                p_min=1,
                p_max=params.p_max,
                arrival_rate=rate,
                service_mean=service,
                variability=variability,
                fitting_coefficient=1.0,
                scalable=True,
            )
        )
    return SequenceLatencyModel("fig5", models)


class Fig5Result:
    """The surface plus the optimizer's landing point."""

    def __init__(
        self,
        params: Fig5Params,
        surface: List[Tuple[int, int, int, int]],
        optima: List[Tuple[int, int, int]],
        rebalance_point: Tuple[int, int, int],
        rebalance_total: int,
        brute_total: Optional[int],
    ) -> None:
        self.params = params
        #: (p1, p2, minimal p3, total F) per feasible grid point
        self.surface = surface
        #: grid points achieving the minimum total parallelism
        self.optima = optima
        self.rebalance_point = rebalance_point
        self.rebalance_total = rebalance_total
        self.brute_total = brute_total

    def report(self) -> str:
        """Fig. 5 summary: surface extent, optima, Rebalance's solution."""
        lines = [
            "Fig. 5 — solution-candidate surface (3 vertices, "
            f"Ŵ = {self.params.wait_budget * 1000:.1f} ms)",
            f"feasible grid points: {len(self.surface)}",
            f"minimum total parallelism on surface: {self.brute_total}",
            f"number of optima (paper: multiple may exist): {len(self.optima)}",
            f"optima: {self.optima[:8]}{' ...' if len(self.optima) > 8 else ''}",
            f"Rebalance chose {self.rebalance_point} with F = {self.rebalance_total}",
        ]
        corner = sorted(self.surface)[:5]
        lines.append("surface sample (p1, p2, min p3, F): " + str(corner))
        return "\n".join(lines)

    def series_csv(self, path: str) -> str:
        """Write the full surface grid to CSV."""
        return write_csv(path, ["p1", "p2", "min_p3", "total"], self.surface)


def run(params: Optional[Fig5Params] = None) -> Fig5Result:
    """Compute the Fig. 5 surface and run Rebalance against it."""
    params = params or Fig5Params()
    model = build_models(params)
    m1, m2, m3 = model.models
    surface: List[Tuple[int, int, int, int]] = []
    best_total: Optional[int] = None
    for p1 in range(1, params.p_max + 1, params.grid_step):
        w1 = m1.waiting_time(p1)
        if w1 == INFINITY:
            continue
        for p2 in range(1, params.p_max + 1, params.grid_step):
            w2 = m2.waiting_time(p2)
            if w2 == INFINITY:
                continue
            residual = params.wait_budget - w1 - w2
            if residual <= 0:
                continue
            p3 = m3.p_for_wait(residual)
            if p3 > params.p_max:
                continue
            total = p1 + p2 + p3
            surface.append((p1, p2, p3, total))
            if best_total is None or total < best_total:
                best_total = total
    optima = [(p1, p2, p3) for p1, p2, p3, total in surface if total == best_total]
    result = rebalance(model, params.wait_budget)
    point = (
        result.parallelism["jv1"],
        result.parallelism["jv2"],
        result.parallelism["jv3"],
    )
    return Fig5Result(params, surface, optima, point, result.total_parallelism, best_total)
