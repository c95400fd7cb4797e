"""The queueing-theoretic latency model (paper Sec. IV-C).

Every task is modeled as a GI/G/1 station. For job vertex *jv* with
per-task arrival rate ``λ``, mean service time ``S̄`` and coefficients of
variation ``c_A``/``c_S``, Kingman's formula approximates the queue wait

    W^K = (ρ · S̄ / (1 − ρ)) · (c_A² + c_S²) / 2,       ρ = λ · S̄.

The *fitting coefficient* ``e_jv = (l_je − obl_je) / W^K`` (Eq. 4)
rescales the approximation onto the measured wait of the vertex's
in-sequence inbound edge, so the model reproduces the *current*
measurement at the *current* parallelism exactly.

Changing the degree of parallelism from ``p`` to ``p*`` scales the
per-task arrival rate anti-proportionally (Eq. 5), giving the predicted
wait as a function of the candidate parallelism:

    W(p*) = a / (p* − b),   a = e · λ · S̄² · p · (c_A² + c_S²)/2,
                            b = λ · S̄ · p.

(The paper's closed forms for ``P_Δ``/``P_W`` omit ``e``; we fold it into
``a`` so they remain exact for the fitted model — the two formulations
are equivalent up to that substitution.)
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.graphs.sequences import JobSequence
from repro.qos.summary import EdgeSummary, GlobalSummary, VertexSummary

INFINITY = float("inf")


def kingman_waiting_time(
    arrival_rate: float,
    service_mean: float,
    arrival_cv: float,
    service_cv: float,
) -> float:
    """Kingman's GI/G/1 heavy-traffic queue-wait approximation (Eq. 3).

    Returns ``inf`` for utilization >= 1 (the queue has no steady state).
    """
    if arrival_rate < 0 or service_mean < 0:
        raise ValueError("arrival_rate and service_mean must be >= 0")
    utilization = arrival_rate * service_mean
    if utilization >= 1.0:
        return INFINITY
    if utilization == 0.0 or service_mean == 0.0:
        return 0.0
    variability = (arrival_cv ** 2 + service_cv ** 2) / 2.0
    return (utilization * service_mean / (1.0 - utilization)) * variability


class VertexModel:
    """Predicted queue wait of one job vertex as a function of parallelism.

    ``W(p*) = a / (p* − b)`` with the coefficients of Sec. IV-D; ``W`` is
    ``inf`` for ``p* <= b`` (utilization would reach 1).
    """

    def __init__(
        self,
        name: str,
        p_current: int,
        p_min: int,
        p_max: int,
        arrival_rate: float,
        service_mean: float,
        variability: float,
        fitting_coefficient: float = 1.0,
        scalable: bool = True,
    ) -> None:
        if p_current < 1:
            raise ValueError(f"{name}: p_current must be >= 1")
        if not 1 <= p_min <= p_max:
            raise ValueError(f"{name}: need 1 <= p_min <= p_max")
        if arrival_rate < 0 or service_mean < 0 or variability < 0:
            raise ValueError(f"{name}: rates/times/variability must be >= 0")
        if fitting_coefficient < 0:
            raise ValueError(f"{name}: fitting coefficient must be >= 0")
        self.name = name
        self.p_current = p_current
        self.p_min = p_min
        self.p_max = p_max
        self.arrival_rate = arrival_rate
        self.service_mean = service_mean
        self.variability = variability
        self.e = fitting_coefficient
        self.scalable = scalable
        #: offered load in "servers": b = λ · S̄ · p
        self.b = arrival_rate * service_mean * p_current
        #: scaled numerator: a = e · λ · S̄² · p · (c_A² + c_S²)/2
        self.a = fitting_coefficient * arrival_rate * service_mean ** 2 * p_current * variability
        #: ⌊b⌋ + 1 precomputed once; ``a``/``b`` are fixed after fitting
        self._min_stable = max(1, math.floor(self.b) + 1)
        # Rebalance's gradient descent re-evaluates W(p*) for the same
        # handful of candidate parallelisms across steps (every
        # ``total_waiting_time`` call touches every vertex, but only one
        # vertex moved); memoizing the Kingman sub-expression per p* turns
        # those re-evaluations into dict hits.
        self._wait_cache: Dict[int, float] = {}

    def waiting_time(self, p_star: int) -> float:
        """Predicted queue wait at parallelism ``p_star`` (``inf`` if unstable)."""
        cache = self._wait_cache
        wait = cache.get(p_star)
        if wait is None:
            if p_star <= self.b:
                wait = INFINITY
            elif self.a == 0.0:
                wait = 0.0
            else:
                wait = self.a / (p_star - self.b)
            cache[p_star] = wait
        return wait

    def marginal_gain(self, p_star: int) -> float:
        """``Δ = W(p*+1) − W(p*)`` (non-positive; ``-inf`` from instability)."""
        current = self.waiting_time(p_star)
        if current == INFINITY:
            return -INFINITY
        return self.waiting_time(p_star + 1) - current

    def p_for_marginal(self, delta: float) -> int:
        """Smallest ``p*`` whose marginal gain is no better than ``delta``.

        This is the paper's variable step size ``P_Δ(i, δ)``: solving
        ``a / ((p−b)(p+1−b)) = |δ|`` for ``p`` gives
        ``p = ⌈b − 1/2 + sqrt(1/4 + a/|δ|)⌉``.
        """
        magnitude = abs(delta)
        if magnitude == 0.0 or magnitude == INFINITY or self.a == 0.0:
            # Degenerate: fall back to the minimal stable parallelism.
            return self.min_stable_parallelism()
        p = math.ceil(self.b - 0.5 + math.sqrt(0.25 + self.a / magnitude))
        return max(p, self.min_stable_parallelism())

    def p_for_wait(self, w: float) -> int:
        """Smallest ``p*`` with ``W(p*) <= w`` — the paper's ``P_W(i, w)``."""
        if w <= 0.0:
            return self.p_max
        if self.a == 0.0:
            return self.min_stable_parallelism()
        p = math.ceil(self.a / w + self.b)
        return max(p, self.min_stable_parallelism())

    def min_stable_parallelism(self) -> int:
        """Smallest integer parallelism with utilization < 1."""
        return self._min_stable

    def utilization_at(self, p_star: int) -> float:
        """Extrapolated utilization ``ρ(p*) = λ S̄ p / p*`` (Eq. 5)."""
        return self.b / p_star

    def __repr__(self) -> str:
        return (
            f"VertexModel({self.name!r}, p={self.p_current}, a={self.a:.3e}, "
            f"b={self.b:.3f}, e={self.e:.3f}, scalable={self.scalable})"
        )


class SequenceLatencyModel:
    """The total queue-wait model ``W_js(p_1*, …, p_n*)`` of one sequence."""

    def __init__(self, sequence_name: str, models: List[VertexModel]) -> None:
        self.sequence_name = sequence_name
        self.models = models

    def scalable_models(self) -> List[VertexModel]:
        """Models of elastically scalable vertices."""
        return [m for m in self.models if m.scalable]

    def total_waiting_time(self, parallelism: Dict[str, int]) -> float:
        """``W_js`` for candidate degrees of parallelism.

        Vertices missing from ``parallelism`` are evaluated at their
        current parallelism (e.g. non-elastic vertices).
        """
        total = 0.0
        for model in self.models:
            p_star = parallelism.get(model.name, model.p_current)
            wait = model.waiting_time(p_star)
            if wait == INFINITY:
                return INFINITY
            total += wait
        return total

    def __repr__(self) -> str:
        return f"SequenceLatencyModel({self.sequence_name!r}, n={len(self.models)})"


def fit_coefficient(
    vertex: VertexSummary,
    inbound_edge: EdgeSummary,
    bounds: Tuple[float, float] = (0.05, 200.0),
) -> float:
    """Compute the fitting coefficient ``e_jv`` (Eq. 4), clamped to ``bounds``.

    When Kingman predicts (near-)zero wait the ratio is undefined; we fall
    back to 1.0 (trust the un-fitted model). The upper clamp tempers the
    paper's observed failure mode of bursts blowing up ``e`` — the clamp
    is deliberately loose so the over-scaling behaviour the paper reports
    remains observable.
    """
    predicted = kingman_waiting_time(
        vertex.arrival_rate,
        vertex.service_mean,
        vertex.interarrival_cv,
        vertex.service_cv,
    )
    measured = inbound_edge.queueing_time
    if predicted == INFINITY or predicted <= 1e-9:
        return 1.0
    low, high = bounds
    return max(low, min(high, measured / predicted))


def build_sequence_model(
    sequence: JobSequence,
    summary: GlobalSummary,
    current_parallelism: Dict[str, int],
    e_bounds: Tuple[float, float] = (0.05, 200.0),
) -> Optional[SequenceLatencyModel]:
    """Initialize the latency model of one sequence from the global summary.

    Only vertices with an inbound edge *inside the sequence* contribute a
    queue-wait term (their wait is observable as ``l_je − obl_je``); a
    leading vertex without an in-sequence inbound edge (typically a
    source) has no modelled wait. Returns ``None`` when any required
    measurement is missing, e.g. right after deployment.
    """
    models: List[VertexModel] = []
    previous_edge = None
    for element in sequence.elements:
        if not hasattr(element, "udf_factory"):  # a JobEdge
            previous_edge = element
            continue
        vertex = element
        if previous_edge is None:
            continue
        vs = summary.vertex(vertex.name)
        es = summary.edge(previous_edge.name)
        if vs is None or es is None:
            return None
        if vs.service_mean <= 0 and vs.arrival_rate <= 0:
            # Vertex has not processed anything yet; model unusable.
            return None
        variability = (vs.interarrival_cv ** 2 + vs.service_cv ** 2) / 2.0
        e = fit_coefficient(vs, es, e_bounds)
        p_current = current_parallelism.get(vertex.name, vertex.parallelism)
        models.append(
            VertexModel(
                vertex.name,
                p_current=max(1, p_current),
                p_min=vertex.min_parallelism,
                p_max=vertex.max_parallelism,
                arrival_rate=vs.arrival_rate,
                service_mean=vs.service_mean,
                variability=variability,
                fitting_coefficient=e,
                scalable=vertex.elastic,
            )
        )
        previous_edge = None
    if not models:
        return None
    return SequenceLatencyModel(sequence.name, models)


# ----------------------------------------------------------------------
# migration cost anticipation (stateful rescaling)
# ----------------------------------------------------------------------


class MigrationCostModel:
    """Cost parameters of a stateful rescale's multi-phase migration.

    A migration pauses the vertex for quiesce → snapshot → transfer →
    restore; every byte-proportional phase scales with the migrated
    state. The *expected* pause (no sampling) is what policies use to
    anticipate migration cost; the actual simulated phases add Gamma
    jitter of coefficient-of-variation ``jitter_cv`` around the same
    means (see :meth:`repro.engine.state.StateManager.sample_phase_times`).
    """

    __slots__ = (
        "quiesce_s",
        "snapshot_bytes_per_s",
        "transfer_bytes_per_s",
        "restore_bytes_per_s",
        "jitter_cv",
    )

    def __init__(
        self,
        quiesce_s: float = 0.05,
        snapshot_bytes_per_s: float = 64e6,
        transfer_bytes_per_s: float = 8e6,
        restore_bytes_per_s: float = 16e6,
        jitter_cv: float = 0.2,
    ) -> None:
        if quiesce_s < 0:
            raise ValueError(f"quiesce_s must be >= 0 (got {quiesce_s})")
        for name, value in (
            ("snapshot_bytes_per_s", snapshot_bytes_per_s),
            ("transfer_bytes_per_s", transfer_bytes_per_s),
            ("restore_bytes_per_s", restore_bytes_per_s),
        ):
            if value <= 0:
                raise ValueError(f"{name} must be positive (got {value})")
        if jitter_cv < 0:
            raise ValueError(f"jitter_cv must be >= 0 (got {jitter_cv})")
        self.quiesce_s = float(quiesce_s)
        self.snapshot_bytes_per_s = float(snapshot_bytes_per_s)
        self.transfer_bytes_per_s = float(transfer_bytes_per_s)
        self.restore_bytes_per_s = float(restore_bytes_per_s)
        self.jitter_cv = float(jitter_cv)

    def phase_means(self, moved_bytes: float) -> Tuple[float, float, float, float]:
        """Mean (quiesce, snapshot, transfer, restore) durations."""
        moved = max(0.0, float(moved_bytes))
        return (
            self.quiesce_s,
            moved / self.snapshot_bytes_per_s,
            moved / self.transfer_bytes_per_s,
            moved / self.restore_bytes_per_s,
        )

    def describe(self) -> Dict[str, float]:
        """Deterministic JSON-serializable parameter dump."""
        return {
            "quiesce_s": self.quiesce_s,
            "snapshot_bytes_per_s": self.snapshot_bytes_per_s,
            "transfer_bytes_per_s": self.transfer_bytes_per_s,
            "restore_bytes_per_s": self.restore_bytes_per_s,
            "jitter_cv": self.jitter_cv,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MigrationCostModel({self.describe()})"


def expected_migration_pause(moved_bytes: float, cost: MigrationCostModel) -> float:
    """The expected vertex pause of migrating ``moved_bytes`` of state.

    Deterministic (consumes no randomness), so scaling policies can call
    it every adjustment round to weigh a rescale's migration pause
    against the remaining latency headroom without perturbing the sim's
    sampled migration durations.
    """
    return sum(cost.phase_means(moved_bytes))
