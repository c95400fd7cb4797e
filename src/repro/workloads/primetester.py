"""The PrimeTester job (paper Sec. III-A, Fig. 2).

``Source → Prime Tester → Sink`` with round-robin wiring. Source tasks
produce random numbers at a step-wise varying rate; Prime Tester tasks
test them for probable primeness (a genuinely compute-intensive UDF —
we run a real Miller–Rabin test for the payload, while the *simulated*
service cost is drawn from a configurable distribution so experiments can
be scaled); Sinks collect results.

Fig. 3, Fig. 6, the task-hour table, the sensitivity grid and the policy
comparison are this one job re-run under different engine
configurations; :func:`run_primetester` is that run, and
:data:`STEP_LOAD` / :data:`SCALED_CLUSTER` are the workload and cluster
they all start from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.udf import MapUDF, SinkUDF, SourceUDF
from repro.graphs.job_graph import JobGraph
from repro.simulation.randomness import Deterministic, Distribution, Gamma
from repro.workloads.rates import PiecewiseRate, step_phase_segments

if TYPE_CHECKING:
    from repro.engine.engine import DeployedJob, EngineConfig
    from repro.experiments.recording import SeriesRecorder


def is_probable_prime(n: int, rounds: int = 8, rng: random.Random = None) -> bool:
    """Miller–Rabin probabilistic primality test.

    Deterministic small-prime screening followed by ``rounds`` random
    witnesses (or fixed witnesses when no RNG is supplied, making the
    function deterministic for tests).
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if rng is None:
        witnesses = small_primes[:rounds]
    else:
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class PrimeTesterParams:
    """Scaled-down PrimeTester experiment parameters.

    The paper ran 50 sources / 200 testers / 50 sinks on 50 workers with
    rates up to ~63 000 items/s; the defaults here are an ~16x scale-down
    that preserves per-task utilization dynamics (see EXPERIMENTS.md).
    Rates are *per source task* (the paper reports aggregate rates).
    """

    n_sources: int = 4
    n_testers: int = 16
    n_sinks: int = 2
    tester_min: int = 16
    tester_max: int = 16
    #: per-source warm-up rate (items/s)
    warmup_rate: float = 25.0
    #: per-source peak rate (items/s)
    peak_rate: float = 1000.0
    increment_steps: int = 8
    step_duration: float = 30.0
    plateau_steps: int = 1
    #: Prime-Tester simulated service time (mean seconds, cv)
    tester_service_mean: float = 0.0025
    tester_service_cv: float = 0.7
    #: Sink simulated service time (mean seconds)
    sink_service_mean: float = 0.0002
    #: bit length of the random numbers tested for primality
    number_bits: int = 48


#: the step-load job the elastic figures share (Fig. 6 as is; the other
#: harnesses ``replace`` the fields in which they differ)
STEP_LOAD = PrimeTesterParams(
    n_sources=8,
    n_testers=8,
    tester_min=1,
    tester_max=64,
    warmup_rate=30.0,
    peak_rate=400.0,
    step_duration=20.0,
)

#: the ``EngineConfig`` overrides of every PrimeTester figure: shipping
#: overheads chosen so batching buys the paper's ~30-60 % effective-
#: throughput gain over instant flushing, and buffer bounds scaled with
#: the job (the paper's cluster bounds queue memory; oversized credit
#: pools would absorb whole overload phases here)
SCALED_CLUSTER = dict(
    per_batch_overhead=0.0015,
    per_item_overhead=0.00002,
    queue_capacity=128,
    channel_capacity=16,
)


def _tester_service(params: PrimeTesterParams) -> Distribution:
    if params.tester_service_cv <= 0:
        return Deterministic(params.tester_service_mean)
    return Gamma(params.tester_service_mean, params.tester_service_cv)


def build_primetester_job(params: PrimeTesterParams = None) -> Tuple[JobGraph, PiecewiseRate]:
    """Build the PrimeTester job graph and its source rate profile.

    Returns ``(job_graph, rate_profile)``; the profile is also attached to
    the Source vertex so the engine's source tasks pick it up.
    """
    params = params or PrimeTesterParams()
    segments = step_phase_segments(
        params.warmup_rate,
        params.peak_rate,
        params.increment_steps,
        params.step_duration,
        params.plateau_steps,
    )
    profile = PiecewiseRate(segments)
    graph = JobGraph("PrimeTester")
    bits = params.number_bits

    def generate_number(now: float, rng: random.Random) -> int:
        return rng.getrandbits(bits) | (1 << (bits - 1)) | 1

    tester_service = _tester_service(params)

    def make_source() -> SourceUDF:
        return SourceUDF(generate_number)

    def make_tester() -> MapUDF:
        return MapUDF(
            lambda n: (n, is_probable_prime(n)),
            service_dist=tester_service,
        )

    def make_sink() -> SinkUDF:
        return SinkUDF(service_dist=Deterministic(params.sink_service_mean))

    source = graph.add_vertex("Source", make_source, parallelism=params.n_sources)
    tester = graph.add_vertex(
        "PrimeTester",
        make_tester,
        parallelism=params.n_testers,
        min_parallelism=params.tester_min,
        max_parallelism=params.tester_max,
    )
    sink = graph.add_vertex("Sink", make_sink, parallelism=params.n_sinks)
    graph.connect(source, tester, pattern="round_robin")
    graph.connect(tester, sink, pattern="round_robin")
    source.rate_profile = profile
    return graph, profile


def primetester_constraint(graph: JobGraph, bound: float = 0.020) -> "LatencyConstraint":
    """The paper's PrimeTester constraint: Source-exit to Sink-entry.

    The constrained sequence is ``(e_Source->PrimeTester, PrimeTester,
    e_PrimeTester->Sink)`` — it covers both channels and the Prime Tester
    vertex but neither the Source nor the Sink vertex, matching "between
    data items leaving the Source tasks and data items entering the Sink
    tasks" (Sec. III-B).
    """
    from repro.core.constraints import LatencyConstraint
    from repro.graphs.sequences import JobSequence

    sequence = JobSequence.from_names(
        graph, ["PrimeTester"], leading_edge=True, trailing_edge=True
    )
    return LatencyConstraint(sequence, bound, name=f"primetester<={bound * 1000:.0f}ms")


def run_primetester(
    workload: PrimeTesterParams,
    config: EngineConfig,
    bound: Optional[float] = None,
    policy: Optional[object] = None,
    recording_interval: Optional[float] = None,
) -> Tuple[DeployedJob, Optional[SeriesRecorder]]:
    """Run the phase plan plus one trailing step: ``(job, recorder)``, stopped.

    ``bound`` submits the paper's constraint (None = unconstrained, as
    the hand-provisioned baselines run), ``policy`` a scaling-policy
    spec (None = the paper's policy when ``config`` is elastic), and
    ``recording_interval`` attaches a
    series recorder with the ``e2e`` sink feed (None = no recorder).
    """
    from repro.builder import BuiltPipeline
    from repro.experiments.recording import Recording, deploy

    graph, profile = build_primetester_job(workload)
    constraints = [] if bound is None else [primetester_constraint(graph, bound)]
    recording = (
        None if recording_interval is None
        else Recording(recording_interval, "Source", {"e2e": "Sink"})
    )
    engine, (job,), recorder = deploy(
        config, [BuiltPipeline(graph, constraints, policy=policy)], recording
    )
    engine.run(profile.end_time + workload.step_duration)
    engine.stop()
    return job, recorder


def phase_boundaries(params: PrimeTesterParams) -> List[Tuple[str, float]]:
    """(phase name, start time) markers for reports and plots."""
    step = params.step_duration
    boundaries = [("warm-up", 0.0), ("increment", step)]
    t = step * (1 + params.increment_steps)
    boundaries.append(("plateau", t))
    t += step * params.plateau_steps
    boundaries.append(("decrement", t))
    t += step * params.increment_steps
    boundaries.append(("end", t))
    return boundaries
