"""Two elastic jobs sharing one pool under weighted fair-share admission.

The paper's closing argument: with latency-constraint-driven elasticity,
"no permanent peak load provisioning is required" — so a cluster can
host several jobs whose peaks do not coincide. This example runs the
repo's canonical shared-cluster scenario: two latency-constrained
pipelines (``alpha``, weight 3, and ``beta``, weight 1) with anti-phased
load peaks plus one coincident window on a pool deliberately too small
for both peaks at once.

Under weighted fair-share admission the run exercises every contention
outcome the resource manager supports:

* ``beta`` peaks first and grows past its fair share of the pool;
* when ``alpha`` ramps up while still under *its* share, arbitration
  **preempts** ``beta``'s reducible tasks to make room;
* requests the pool cannot cover even after preemption are **denied**
  at admission time — the scaler records them as unresolvable and
  retries on later rounds (no partially-wired scale-up can ever occur,
  because slots are reserved before a scale-up is reported applied).

Run:  python examples/shared_cluster.py
"""

from repro.workloads.multi_job import (
    ALPHA_WEIGHT,
    BETA_WEIGHT,
    collect_shared_cluster_result,
)
from repro.workloads.scenario import ScenarioSpec, build


def main() -> None:
    # the canonical scenario: `repro run --shared-cluster` builds this spec
    spec = ScenarioSpec(
        seed=11, rate=1400.0, bound=0.060, workload="multi_job", duration=240.0
    )
    engine, jobs, _recorder = build(spec)
    alpha, beta = jobs

    knobs = spec.resolved()
    print(
        f"shared pool: {knobs['worker_pool']} workers x {knobs['slots_per_worker']} "
        f"slots, fair-share weights alpha={ALPHA_WEIGHT:g}, beta={BETA_WEIGHT:g}"
    )
    print(f"{'time':>5}  {'p(alpha)':>8}  {'p(beta)':>7}  "
          f"{'denials':>7}  {'preempted':>9}  {'slots free':>10}")
    resources = engine.resources
    for _ in range(16):
        engine.run(spec.duration / 16.0)
        print(
            f"{engine.now:5.0f}  {alpha.parallelism('worker'):8d}  "
            f"{beta.parallelism('worker'):7d}  "
            f"{resources.admission_denials:7d}  "
            f"{resources.preempted_tasks:9d}  "
            f"{resources.free_slots_available():10d}"
        )

    result = collect_shared_cluster_result(engine, jobs)
    print()
    for job in result["jobs"]:
        account = job["account"]
        print(
            f"{job['job']}: fulfillment {job['fulfillment'] * 100:.1f}%, "
            f"{account['denials']} denials, "
            f"{account['preemptions_suffered']} tasks preempted away, "
            f"{account['preemptions_inflicted']} preemptions inflicted"
        )
    cluster = result["cluster"]
    print(f"fairness (Jain, per-job fulfillment): {result['fairness']:.4f}")
    print(
        f"cluster: {cluster['admission_denials']} admission denials, "
        f"{cluster['preempted_tasks']} preempted tasks, "
        f"{cluster['task_hours'] * 3600:.0f} task-seconds"
    )

    # The scenario is only demonstrative if contention actually happened.
    assert cluster["admission_denials"] > 0, "expected at least one denial"
    assert cluster["preempted_tasks"] > 0, "expected at least one preemption"


if __name__ == "__main__":
    main()
