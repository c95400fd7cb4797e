"""Closed-form queueing results (single- and multi-server stations).

Conventions: ``arrival_rate`` = λ (items/s), ``service_mean`` = E[S]
(seconds), utilization ρ = λ·E[S] (single server) or λ·E[S]/c (``c``
servers). All waiting times are *queue* waits (excluding service), in
seconds; saturated systems return ``inf``.
"""

from __future__ import annotations

INFINITY = float("inf")


def _check(arrival_rate: float, service_mean: float) -> float:
    if arrival_rate < 0 or service_mean < 0:
        raise ValueError("arrival_rate and service_mean must be >= 0")
    return arrival_rate * service_mean


def mm1_waiting_time(arrival_rate: float, service_mean: float) -> float:
    """M/M/1 mean queue wait: ``W_q = ρ / (μ − λ)``."""
    rho = _check(arrival_rate, service_mean)
    if rho >= 1.0:
        return INFINITY
    if rho == 0.0:
        return 0.0
    mu = 1.0 / service_mean
    return rho / (mu - arrival_rate)


def mm1_queue_length(arrival_rate: float, service_mean: float) -> float:
    """M/M/1 mean number in queue: ``L_q = ρ² / (1 − ρ)`` (Little's law)."""
    rho = _check(arrival_rate, service_mean)
    if rho >= 1.0:
        return INFINITY
    return rho * rho / (1.0 - rho)


def md1_waiting_time(arrival_rate: float, service_mean: float) -> float:
    """M/D/1 mean queue wait — exactly half the M/M/1 wait."""
    return mm1_waiting_time(arrival_rate, service_mean) / 2.0


def mg1_waiting_time(
    arrival_rate: float, service_mean: float, service_cv: float
) -> float:
    """M/G/1 mean queue wait (Pollaczek–Khinchine).

    ``W_q = (λ · E[S²]) / (2 (1 − ρ))`` with
    ``E[S²] = (1 + c_S²) · E[S]²``.
    """
    rho = _check(arrival_rate, service_mean)
    if service_cv < 0:
        raise ValueError("service_cv must be >= 0")
    if rho >= 1.0:
        return INFINITY
    if rho == 0.0:
        return 0.0
    second_moment = (1.0 + service_cv ** 2) * service_mean ** 2
    return arrival_rate * second_moment / (2.0 * (1.0 - rho))


def allen_cunneen_waiting_time(
    arrival_rate: float,
    service_mean: float,
    servers: int,
    arrival_cv: float = 1.0,
    service_cv: float = 1.0,
) -> float:
    """Allen–Cunneen GI/G/c approximation.

    ``W_q ≈ W_q(M/M/c) · (c_A² + c_S²) / 2`` — the multi-server
    generalization of Kingman's formula; reduces to it for c = 1 up to
    the M/M/1-vs-heavy-traffic base term.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    base = mmc_waiting_time(arrival_rate, service_mean, servers)
    if base == INFINITY:
        return INFINITY
    return base * (arrival_cv ** 2 + service_cv ** 2) / 2.0


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang C: probability an arrival waits in an M/M/c queue.

    ``offered_load`` is ``a = λ·E[S]`` in Erlangs; requires ``a < c``.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if offered_load < 0:
        raise ValueError("offered_load must be >= 0")
    if offered_load >= servers:
        return 1.0
    if offered_load == 0.0:
        return 0.0
    # sum_{k=0}^{c-1} a^k / k!  computed iteratively for stability
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered_load / k
        total += term
    term *= offered_load / servers
    top = term * servers / (servers - offered_load)
    return top / (total + top)


def mmc_waiting_time(arrival_rate: float, service_mean: float, servers: int) -> float:
    """M/M/c mean queue wait via Erlang C."""
    if servers < 1:
        raise ValueError("servers must be >= 1")
    offered = _check(arrival_rate, service_mean)
    if offered >= servers:
        return INFINITY
    if offered == 0.0:
        return 0.0
    p_wait = erlang_c(servers, offered)
    return p_wait * service_mean / (servers - offered)
