"""Parallel experiment execution: fan a grid of stacks over worker processes.

Every figure in the reproduction replays the same trace through a grid of
independent ``(policy, variant, device)`` stacks.  Each stack owns a private
:class:`~repro.storage.clock.VirtualClock` and a freshly formatted device,
so the grid is embarrassingly parallel: no job observes any other job's
state, and the metrics of a run are a pure function of its
:class:`~repro.bench.runner.StackConfig` and its trace.  This module
exploits that with the process fan-out of :mod:`repro.engine.fanout`,
whose merged results are **identical** to the serial path — the
determinism test in ``tests/bench/test_parallel_determinism.py`` holds the
two byte-for-byte equal.

Worker count resolution (first match wins):

1. an explicit ``workers=`` argument (the CLI's ``--workers N``);
2. the ``REPRO_WORKERS`` environment variable;
3. ``os.cpu_count()``.

Jobs ship a :class:`TraceSpec` rather than a materialised trace whenever
possible: the spec is a few dozen bytes to pickle, and each worker process
materialises and caches the trace once, however many jobs share it.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.bench.runner import StackConfig, run_config, run_config_transactions
from repro.engine.fanout import MAX_ATTEMPTS as MAX_JOB_ATTEMPTS
from repro.engine.fanout import JobFailure, fan_out
from repro.engine.metrics import RunMetrics
from repro.workloads.synthetic import WorkloadSpec, generate_trace
from repro.workloads.trace import PageRequest, Trace
from repro.workloads.tpcc.transactions import TransactionType

__all__ = [
    "TraceSpec", "GridJob", "GridFailure", "resolve_workers", "run_grid",
    "run_keyed_grid",
]

#: Environment variable overriding the default worker count.
WORKERS_ENV_VAR = "REPRO_WORKERS"


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


def run_grid(
    jobs: list[GridJob] | tuple[GridJob, ...],
    workers: int | None = None,
) -> list[RunMetrics | GridFailure]:
    """Run every job and return metrics in job order.

    The result list is positionally aligned with ``jobs`` regardless of
    completion order, and is byte-identical to running the jobs serially:
    each stack is rebuilt from its config inside the worker, on a private
    clock, so no cross-job state exists to diverge on.

    A job that raises — or whose worker process dies — is retried by
    :func:`repro.engine.fanout.fan_out` until its :data:`MAX_JOB_ATTEMPTS`
    tries are spent, then reported as a :class:`GridFailure` in its slot
    rather than aborting the grid, at any worker count.
    """
    jobs = list(jobs)
    results = fan_out(_execute_job, jobs, resolve_workers(workers))
    for index, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, JobFailure):
            results[index] = GridFailure(
                label=job.label if job.label is not None else job.config.label,
                config=job.config,
                error=f"{type(result.error).__name__}: {result.error}",
                attempts=result.attempts,
            )
    return results


def run_keyed_grid(
    keyed_jobs: Iterable[tuple[object, GridJob]],
    workers: int | None = None,
) -> dict[object, RunMetrics]:
    """:func:`run_grid` over ``(key, job)`` pairs: metrics by key, in order.

    A figure or a comparison needs every cell, so a :class:`GridFailure`
    is not a result here: the grid runs to the end, then raises a
    ``RuntimeError`` naming each failed cell's label and error.
    """
    keyed_jobs = list(keyed_jobs)
    results = run_grid([job for _, job in keyed_jobs], workers=workers)
    failures = [result for result in results if isinstance(result, GridFailure)]
    if failures:
        raise RuntimeError(
            f"{len(failures)} of {len(results)} grid cells failed: "
            + "; ".join(f"{failure.label}: {failure.error}" for failure in failures)
        )
    return {key: result for (key, _), result in zip(keyed_jobs, results)}
