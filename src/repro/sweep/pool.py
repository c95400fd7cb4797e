"""A crash-isolated worker-process pool for deterministic job sets.

The sweep orchestrator's executor: a fixed set of independent jobs (its
shards) runs across worker processes with these guarantees:

* every job runs in its *own* process; a crash (non-zero exit, signal,
  ``os._exit``) fails only that job;
* failed jobs are retried up to ``max_retries`` times;
* success is judged by exit code 0 plus an optional caller-supplied
  ``verify`` callback (typically: "the checkpoint file exists and is
  valid"), never by anything timing-dependent;
* jobs are *submitted* in input order and the pool reports outcomes, so
  callers can merge artifacts deterministically (ordered by job key, not
  completion time) no matter the worker count.

The filesystem is the only channel between pool and workers — the pool
itself never receives Python objects back from a job.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: longest wait for a worker-process exit before the pool polls again (seconds)
POLL_INTERVAL = 0.02


class PoolError(RuntimeError):
    """The pool could not start (misuse: bad worker/retry counts)."""


class PoolJob:
    """One unit of work: a picklable ``target(*args)`` subprocess entry."""

    __slots__ = ("key", "target", "args")

    def __init__(self, key: str, target: Callable, args: Tuple) -> None:
        self.key = key
        self.target = target
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PoolJob({self.key})"


class JobOutcome:
    """How one job ended: done or failed, with attempt accounting."""

    __slots__ = ("key", "status", "attempts", "elapsed_s", "exitcode")

    def __init__(
        self, key: str, status: str, attempts: int, elapsed_s: float,
        exitcode: Optional[int] = None,
    ) -> None:
        self.key = key
        self.status = status  # "done" | "failed"
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.exitcode = exitcode

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"JobOutcome({self.key}: {self.status}, {self.attempts} attempts)"


class PoolStats:
    """Pool-level accounting (done/failed/retried, speedup vs. serial)."""

    def __init__(self) -> None:
        self.jobs = 0
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.workers = 0
        self.wall_s = 0.0
        #: sum of per-job wall times — what a serial run of the same jobs
        #: would roughly have taken
        self.serial_estimate_s = 0.0


def _mp_context():
    # fork (where available) inherits sys.path and is fast; spawn is the
    # portable fallback — job entries/args are picklable either way.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def ensure_importable_env() -> Optional[str]:
    """Make spawned children able to ``import repro``; returns old PYTHONPATH."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    old = os.environ.get("PYTHONPATH")
    parts = old.split(os.pathsep) if old else []
    if root not in parts:
        os.environ["PYTHONPATH"] = os.pathsep.join([root] + parts)
    return old


def restore_env(old: Optional[str]) -> None:
    """Undo :func:`ensure_importable_env`."""
    if old is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = old


def run_pool(
    jobs: Sequence[PoolJob],
    workers: int = 2,
    max_retries: int = 2,
    verify: Optional[Callable[[PoolJob], bool]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[PoolStats, List[JobOutcome]]:
    """Run every job across ``workers`` processes; returns (stats, outcomes).

    ``verify(job)`` (when given) must confirm the job's artifact after a
    zero exit; a job that exits 0 without a valid artifact is treated as
    crashed and retried. Outcomes are appended in completion order — the
    caller owns any deterministic ordering of merged artifacts.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise PoolError(f"workers must be a positive int, got {workers!r}")
    if not isinstance(max_retries, int) or isinstance(max_retries, bool) or max_retries < 0:
        raise PoolError(f"max_retries must be a non-negative int, got {max_retries!r}")
    say = progress if progress is not None else (lambda message: None)

    stats = PoolStats()
    stats.jobs = len(jobs)
    stats.workers = workers
    outcomes: List[JobOutcome] = []

    ctx = _mp_context()
    pending: deque = deque(jobs)
    attempts: Dict[str, int] = {}
    active: Dict[str, tuple] = {}
    started = time.monotonic()
    old_pythonpath = ensure_importable_env()
    try:
        while pending or active:
            while pending and len(active) < workers:
                job = pending.popleft()
                attempts[job.key] = attempts.get(job.key, 0) + 1
                process = ctx.Process(
                    target=job.target,
                    args=job.args,
                    name=f"sweep-{job.key}",
                )
                process.start()
                active[job.key] = (process, job, time.monotonic())
                say(f"run  {job.key} (attempt {attempts[job.key]})")
            # Wake as soon as any worker exits; the timeout only bounds the
            # wait, the scan below judges every process by is_alive().
            sentinels = [process.sentinel for process, _job, _t0 in active.values()]
            wait(sentinels, timeout=POLL_INTERVAL)
            for key in list(active):
                process, job, job_started = active[key]
                if process.is_alive():
                    continue
                process.join()
                elapsed = time.monotonic() - job_started
                del active[key]
                stats.serial_estimate_s += elapsed
                ok = process.exitcode == 0 and (verify is None or verify(job))
                if ok:
                    stats.done += 1
                    outcomes.append(JobOutcome(key, "done", attempts[key], elapsed, 0))
                    say(f"done {key} ({elapsed:.1f}s)")
                elif attempts[key] <= max_retries:
                    stats.retried += 1
                    pending.append(job)
                    say(f"retry {key} (worker exit {process.exitcode})")
                else:
                    stats.failed += 1
                    outcomes.append(
                        JobOutcome(key, "failed", attempts[key], elapsed, process.exitcode)
                    )
                    say(f"FAIL {key} after {attempts[key]} attempts "
                        f"(worker exit {process.exitcode})")
    finally:
        for process, _job, _t0 in active.values():  # pragma: no cover
            process.terminate()
        restore_env(old_pythonpath)
    stats.wall_s = time.monotonic() - started
    return stats, outcomes
