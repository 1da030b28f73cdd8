"""Parallel experiment execution: fan a grid of stacks over worker processes.

Every figure in the reproduction replays the same trace through a grid of
independent ``(policy, variant, device)`` stacks.  Each stack owns a private
:class:`~repro.storage.clock.VirtualClock` and a freshly formatted device,
so the grid is embarrassingly parallel: no job observes any other job's
state, and the metrics of a run are a pure function of its
:class:`~repro.bench.runner.StackConfig` and its trace.  This module
exploits that with a :class:`~concurrent.futures.ProcessPoolExecutor`
fan-out whose merged results are **identical** to the serial path — the
determinism test in ``tests/bench/test_parallel_determinism.py`` holds the
two byte-for-byte equal.

Worker count resolution (first match wins):

1. an explicit ``workers=`` argument (the CLI's ``--workers N``);
2. the ``REPRO_WORKERS`` environment variable;
3. ``os.cpu_count()``.

``workers <= 1`` (or a single job) short-circuits to an in-process loop, so
the serial path is always available and never pays pickling overhead.

Jobs ship a :class:`TraceSpec` rather than a materialised trace whenever
possible: the spec is a few dozen bytes to pickle, and each worker process
materialises and caches the trace once, however many jobs share it.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.bench.runner import StackConfig, run_config, run_config_transactions
from repro.engine.metrics import RunMetrics
from repro.workloads.synthetic import WorkloadSpec, generate_trace
from repro.workloads.trace import PageRequest, Trace
from repro.workloads.tpcc.transactions import TransactionType

__all__ = ["TraceSpec", "GridJob", "GridFailure", "resolve_workers", "run_grid"]

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Total tries per job: the initial run plus two retries.  A crashed worker
#: (``BrokenProcessPool``) fails every job that was queued on the pool, so
#: innocent jobs get their retries on a fresh pool; a deterministic job
#: error burns its tries quickly and is reported instead of raised.
MAX_JOB_ATTEMPTS = 3


@dataclass(frozen=True)
class TraceSpec:
    """A picklable recipe for a synthetic trace.

    ``generate_trace`` is fully determined by these four fields, so a spec
    stands in for the trace it describes: workers materialise it on first
    use and cache it for the rest of the grid (keyed by the spec itself).
    """

    spec: WorkloadSpec
    num_pages: int
    num_ops: int
    seed: int = 42

    def materialise(self) -> Trace:
        return generate_trace(
            self.spec, self.num_pages, self.num_ops, seed=self.seed
        )


@dataclass(frozen=True)
class GridJob:
    """One unit of the experiment grid: a stack plus the work to replay.

    Exactly one of ``trace`` (a :class:`Trace` or :class:`TraceSpec`) and
    ``transactions`` (a TPC-C-style ``(type, requests)`` stream) must be
    set.  ``label`` overrides the metrics label, mirroring the ``label``
    parameters of :func:`~repro.bench.runner.run_config`.
    """

    config: StackConfig
    trace: Trace | TraceSpec | None = None
    transactions: tuple[tuple[TransactionType, list[PageRequest]], ...] | None = (
        None
    )
    label: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if (self.trace is None) == (self.transactions is None):
            raise ValueError(
                "a GridJob needs exactly one of `trace` and `transactions`"
            )


@dataclass(frozen=True)
class GridFailure:
    """A grid job that still failed after :data:`MAX_JOB_ATTEMPTS` tries.

    Takes the failed job's slot in :func:`run_grid`'s result list, so one
    bad configuration (or one crashed worker process) no longer discards
    an entire grid's worth of finished work.
    """

    label: str | None
    config: StackConfig
    error: str
    attempts: int

    def __bool__(self) -> bool:
        # Lets callers split results with a truthiness check mirroring
        # "did this job produce metrics".
        return False


#: Per-worker-process cache of materialised traces, keyed by spec.
_TRACE_CACHE: dict[TraceSpec, Trace] = {}


def _materialise(trace: Trace | TraceSpec) -> Trace:
    if isinstance(trace, TraceSpec):
        cached = _TRACE_CACHE.get(trace)
        if cached is None:
            # Deliberate per-process memo: each worker warms its own copy.
            cached = _TRACE_CACHE[trace] = trace.materialise()
        return cached
    return trace


def _execute_job(job: GridJob) -> RunMetrics:
    """Run one grid job to completion (worker-side entry point)."""
    if job.transactions is not None:
        return run_config_transactions(
            job.config, list(job.transactions), label=job.label
        )
    assert job.trace is not None
    return run_config(job.config, _materialise(job.trace), label=job.label)


def resolve_workers(workers: int | None = None) -> int:
    """Resolve the worker count: argument > ``REPRO_WORKERS`` > cpu count."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be at least 1: {workers}")
    return workers


def _failure(job: GridJob, exc: BaseException, attempts: int) -> GridFailure:
    return GridFailure(
        label=job.label if job.label is not None else job.config.label,
        config=job.config,
        error=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
    )


def run_grid(
    jobs: list[GridJob] | tuple[GridJob, ...],
    workers: int | None = None,
) -> list[RunMetrics | GridFailure]:
    """Run every job and return metrics in job order.

    The result list is positionally aligned with ``jobs`` regardless of
    completion order, and is byte-identical to running the jobs serially:
    each stack is rebuilt from its config inside the worker, on a private
    clock, so no cross-job state exists to diverge on.

    A job that raises — or whose worker process dies, which surfaces as
    ``BrokenProcessPool`` for every job queued on that pool — is retried
    on a **fresh** pool until its :data:`MAX_JOB_ATTEMPTS` tries are spent,
    then reported as a :class:`GridFailure` in its slot rather than
    aborting the grid.  The serial path applies the same retry-and-report
    semantics, so the two paths stay interchangeable.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    workers = min(resolve_workers(workers), len(jobs))
    results: list[RunMetrics | GridFailure | None] = [None] * len(jobs)
    attempts = [0] * len(jobs)
    pending = list(range(len(jobs)))

    if workers <= 1:
        for index in pending:
            job = jobs[index]
            while True:
                attempts[index] += 1
                try:
                    results[index] = _execute_job(job)
                    break
                except Exception as exc:
                    if attempts[index] >= MAX_JOB_ATTEMPTS:
                        results[index] = _failure(job, exc, attempts[index])
                        break
        return results  # type: ignore[return-value]

    while pending:
        still_failing: list[int] = []
        # A fresh pool per round: a BrokenProcessPool poisons the executor
        # it happened on, so retries must never reuse it.
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            submitted = []
            for index in pending:
                attempts[index] += 1
                try:
                    submitted.append((index, pool.submit(_execute_job, jobs[index])))
                except Exception as exc:
                    # submit() itself fails once the pool is already broken.
                    if attempts[index] >= MAX_JOB_ATTEMPTS:
                        results[index] = _failure(jobs[index], exc, attempts[index])
                    else:
                        still_failing.append(index)
            for index, future in submitted:
                try:
                    results[index] = future.result()
                except Exception as exc:
                    if attempts[index] >= MAX_JOB_ATTEMPTS:
                        results[index] = _failure(jobs[index], exc, attempts[index])
                    else:
                        still_failing.append(index)
        pending = still_failing
    return results  # type: ignore[return-value]
