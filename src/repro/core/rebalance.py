"""The Rebalance technique — Algorithm 1 (paper Sec. IV-D).

Given the fitted sequence latency model and a queue-wait budget
``Ŵ_js``, Rebalance chooses new degrees of parallelism that minimize the
total parallelism ``Σ p_i*`` subject to ``W_js(p*…) <= Ŵ_js`` and the
per-vertex bounds, via gradient descent with a variable step size:

* each iteration raises the parallelism of the vertex with the steepest
  queue-wait decrease ``Δ``;
* the step size ``P_Δ(c1, Δ_c2)`` jumps straight to the parallelism at
  which the runner-up vertex ``c2`` becomes the steepest — skipping the
  intermediate single steps a naive descent would take;
* when only one vertex can still grow, ``P_W`` closes the residual gap in
  one step.

The variable step overshoots on purpose. :func:`greedy_minimum` is the
exact minimum of the same problem for any per-vertex wait that is convex
and non-increasing in the parallelism (greedy marginal allocation, as in
DRS, arxiv 1501.03610): :class:`~repro.core.drs.DrsPolicy` allocates with
it, and the tests check Algorithm 1 against it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.latency_model import INFINITY, SequenceLatencyModel, VertexModel
from repro.qos.stats import sum_in_order


class RebalanceResult:
    """Outcome of one Rebalance invocation."""

    def __init__(
        self,
        parallelism: Dict[str, int],
        feasible: bool,
        predicted_wait: float,
    ) -> None:
        #: chosen degree of parallelism per job-vertex name
        self.parallelism = parallelism
        #: whether the budget is satisfiable within the parallelism bounds
        self.feasible = feasible
        #: ``W_js`` predicted at the returned parallelism
        self.predicted_wait = predicted_wait

    @property
    def total_parallelism(self) -> int:
        """Objective value ``F = Σ p_i*`` over the scalable vertices."""
        return sum(self.parallelism.values())

    def __repr__(self) -> str:
        return (
            f"RebalanceResult({self.parallelism}, feasible={self.feasible}, "
            f"W={self.predicted_wait:.6f})"
        )


def rebalance(
    model: SequenceLatencyModel,
    wait_limit: float,
    min_parallelism: Optional[Dict[str, int]] = None,
) -> RebalanceResult:
    """Run Algorithm 1 on a fitted sequence model.

    Parameters
    ----------
    model:
        The sequence latency model (fixed vertices contribute constant
        wait terms and are never rescaled).
    wait_limit:
        The budget ``Ŵ_js``.
    min_parallelism:
        The paper's ``P_min``: per-vertex lower bounds carried over from
        earlier Rebalance invocations on overlapping constraints.

    Returns
    -------
    RebalanceResult
        With ``feasible=False`` when even maximum scale-out cannot meet
        the budget — in that case the returned parallelism is the maximum
        scale-out (best effort), matching the engine's "inform the user,
        keep trying" stance.
    """
    overrides = min_parallelism or {}
    scalable: List[VertexModel] = model.scalable_models()
    if not scalable:
        wait = model.total_waiting_time({})
        return RebalanceResult({}, wait <= wait_limit, wait)

    # Feasibility test at maximum scale-out (Algorithm 1, lines 1-2).
    p: Dict[str, int] = {m.name: m.p_max for m in scalable}
    max_wait = model.total_waiting_time(p)
    if max_wait > wait_limit:
        return RebalanceResult(dict(p), False, max_wait)

    # Start from the minimum scale-out, honouring P_min (line 3).
    for m in scalable:
        p[m.name] = _clamp(m, max(m.p_min, overrides.get(m.name, m.p_min)))

    # Every step raises one vertex below p_max, so the loop ends; and it
    # never runs with all of them at p_max, whose wait passed the test.
    while model.total_waiting_time(p) > wait_limit:
        candidates = [m for m in scalable if p[m.name] < m.p_max]
        deltas = [(m.marginal_gain(p[m.name]), i) for i, m in enumerate(candidates)]
        deltas.sort()
        best_delta, best_index = deltas[0]
        c1 = candidates[best_index]
        if len(candidates) > 1:
            runner_delta, _ = deltas[1]
            target = _step_target(c1, p[c1.name], runner_delta)
            p[c1.name] = _clamp(c1, max(target, p[c1.name] + 1))
        else:
            # Sum the *other* vertices' waits directly: subtracting
            # c1's wait from the total would be inf - inf when both are
            # unstable.
            others = 0.0
            for m in model.models:
                if m is c1:
                    continue
                others += m.waiting_time(p.get(m.name, m.p_current))
            if others == INFINITY:
                # A fixed vertex is unstable: no amount of scaling c1 helps.
                p[c1.name] = c1.p_max
                break
            available = wait_limit - others
            if available <= 0:
                p[c1.name] = c1.p_max
            else:
                p[c1.name] = _clamp(c1, max(c1.p_for_wait(available), p[c1.name] + 1))

    final_wait = model.total_waiting_time(p)
    return RebalanceResult(dict(p), final_wait <= wait_limit, final_wait)


def _step_target(model: VertexModel, p_current: int, runner_delta: float) -> int:
    """The variable step ``P_Δ(c1, Δ_c2)`` with degenerate-input handling."""
    if runner_delta == -INFINITY:
        # The runner-up is itself unstable; just restore c1's stability.
        return max(p_current + 1, model.min_stable_parallelism())
    if runner_delta == 0.0:
        # The runner-up gains nothing; c1 should close the gap alone next
        # round — advance minimally to re-evaluate.
        return p_current + 1
    return model.p_for_marginal(runner_delta)


def _clamp(model: VertexModel, p: int) -> int:
    return max(model.p_min, min(model.p_max, p))


def greedy_minimum(
    waits: Sequence[Callable[[int], float]],
    low: Sequence[int],
    high: Sequence[int],
    wait_limit: float,
) -> Tuple[List[int], bool]:
    """The least total parallelism whose summed wait meets ``wait_limit``.

    ``waits[i](p)`` is vertex *i*'s wait at parallelism ``p`` (``inf``
    while unstable), searched over ``low[i] <= p <= high[i]``. From
    ``low``, each step adds one unit where the total wait falls most: an
    unstable vertex's gain is infinite, and a tie goes to the first
    vertex. The total is summed left to right, and the search stops once
    it is at most ``wait_limit`` or every vertex is at ``high``. When
    each wait is convex and non-increasing above its stability floor,
    the result is the exact minimum (greedy marginal allocation).

    Returns ``(parallelism, feasible)``; an infeasible result is ``high``.
    """
    p = list(low)
    current = [wait(c) for wait, c in zip(waits, p)]
    while True:
        if sum_in_order(current) <= wait_limit:
            return p, True
        best = -1
        best_gain = 0.0
        for i, c in enumerate(p):
            if c >= high[i]:
                continue
            gain = INFINITY if current[i] == INFINITY else current[i] - waits[i](c + 1)
            if best < 0 or gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            return p, False
        p[best] += 1
        current[best] = waits[best](p[best])


def brute_force_minimum(
    model: SequenceLatencyModel,
    wait_limit: float,
    min_parallelism: Optional[Dict[str, int]] = None,
) -> Optional[Tuple[int, Dict[str, int]]]:
    """Exhaustive reference solver (tests only; exponential in vertices).

    Returns ``(total, assignment)`` of a minimum-total feasible assignment
    or ``None`` when infeasible. The tests cross-check
    :func:`greedy_minimum` against it on small sequences.
    """
    overrides = min_parallelism or {}
    scalable = model.scalable_models()
    if not scalable:
        wait = model.total_waiting_time({})
        return (0, {}) if wait <= wait_limit else None
    best: Optional[Tuple[int, Dict[str, int]]] = None

    def recurse(index: int, assignment: Dict[str, int]) -> None:
        nonlocal best
        if index == len(scalable):
            if model.total_waiting_time(assignment) <= wait_limit:
                total = sum(assignment.values())
                if best is None or total < best[0]:
                    best = (total, dict(assignment))
            return
        m = scalable[index]
        low = max(m.p_min, overrides.get(m.name, m.p_min))
        for candidate in range(low, m.p_max + 1):
            assignment[m.name] = candidate
            recurse(index + 1, assignment)
        del assignment[m.name]

    recurse(0, {})
    return best
