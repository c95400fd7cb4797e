"""Using the latency model and Rebalance as a standalone library.

The paper's core machinery — Kingman-based queue-wait prediction, the
fitting coefficient, and the Rebalance optimizer — is usable without the
simulated engine: feed it your own measurements (e.g. from a production
metrics system) and it returns minimal degrees of parallelism for a
latency budget.

This example (1) sizes a three-stage pipeline offline for several load
levels, and (2) shows a custom policy subclass that pads every Rebalance
decision with one standby task per vertex (a common "headroom" variant),
registered in the policy registry so jobs select it by name like any
built-in (see ``repro.core.policy``).

Run:  python examples/custom_scaling_policy.py
"""

from repro import (
    ScaleReactivelyPolicy,
    SequenceLatencyModel,
    VertexModel,
    kingman_waiting_time,
    rebalance,
)
from repro.core.policy import PolicyContext, register_policy


def offline_capacity_planning() -> None:
    """Size a parse -> enrich -> score pipeline for a 5 ms queue budget."""
    print("offline capacity planning (queue-wait budget: 5 ms)")
    print(f"{'load (items/s)':>14}  {'parse':>5}  {'enrich':>6}  {'score':>5}  {'total':>5}")
    for load in (500.0, 2000.0, 8000.0, 20000.0):
        # (service mean s, squared-CV variability term) per stage
        stages = [
            ("parse", 0.0004, 0.6),
            ("enrich", 0.0015, 1.0),
            ("score", 0.0008, 0.8),
        ]
        models = [
            VertexModel(
                name,
                p_current=1,
                p_min=1,
                p_max=512,
                arrival_rate=load,  # per task at p=1; scales with 1/p*
                service_mean=service,
                variability=variability,
            )
            for name, service, variability in stages
        ]
        result = rebalance(SequenceLatencyModel("pipeline", models), wait_limit=0.005)
        p = result.parallelism
        print(
            f"{load:14.0f}  {p['parse']:5d}  {p['enrich']:6d}  {p['score']:5d}"
            f"  {result.total_parallelism:5d}"
        )
    print()


def kingman_sanity_check() -> None:
    """Show the super-linear queue growth the paper's Sec. III-C measures."""
    print("Kingman queue wait vs. utilization (service 2 ms, cA=cS=1):")
    for utilization in (0.3, 0.6, 0.8, 0.9, 0.95, 0.99):
        rate = utilization / 0.002
        wait = kingman_waiting_time(rate, 0.002, 1.0, 1.0)
        print(f"  rho = {utilization:4.2f}  ->  W = {wait * 1000:8.2f} ms")
    print()


class HeadroomPolicy(ScaleReactivelyPolicy):
    """ScaleReactively with standby tasks of headroom per vertex.

    A minimal example of customizing the paper's Algorithm 2: decisions
    are computed exactly as in the paper, then padded to absorb small
    bursts without a reactive round trip.
    """

    name = "headroom"

    def __init__(self, constraints, headroom: int = 1, **kwargs):
        super().__init__(constraints, **kwargs)
        self.headroom = headroom

    def knobs(self):
        merged = dict(super().knobs())
        merged["headroom"] = self.headroom
        return merged

    def decide(self, summary, current_parallelism):
        decision = super().decide(summary, current_parallelism)
        for name in list(decision.parallelism):
            decision.parallelism[name] += self.headroom
        return decision


# Registering makes "headroom" selectable anywhere a policy name is
# accepted: builder.scale(), engine.submit(policy=...), --policy flags.
@register_policy(HeadroomPolicy.name)
def _build_headroom(context: PolicyContext, **knobs) -> HeadroomPolicy:
    return HeadroomPolicy(context.constraints, **knobs)


def custom_policy_demo() -> None:
    """Run the elastic PrimeTester with the headroom policy variant."""
    from repro import EngineConfig, PrimeTesterParams, StreamProcessingEngine, build_primetester_job
    from repro.workloads.primetester import primetester_constraint

    params = PrimeTesterParams(
        n_sources=4, n_testers=4, tester_min=1, tester_max=32,
        warmup_rate=50.0, peak_rate=300.0, increment_steps=3, step_duration=10.0,
    )
    graph, profile = build_primetester_job(params)
    constraint = primetester_constraint(graph, 0.025)
    engine = StreamProcessingEngine(EngineConfig.nephele_adaptive(elastic=True))
    job = engine.submit(graph, [constraint], policy="headroom:headroom=1")
    engine.run(profile.end_time + params.step_duration)
    tracker = job.trackers[0]
    print("custom HeadroomPolicy on PrimeTester:")
    print(
        f"  fulfilled {tracker.fulfillment_ratio * 100:.1f}% of "
        f"{tracker.intervals_observed} intervals, final p = "
        f"{job.parallelism('PrimeTester')}, "
        f"task-seconds = {engine.resources.task_seconds():.0f}"
    )


if __name__ == "__main__":
    kingman_sanity_check()
    offline_capacity_planning()
    custom_policy_demo()
