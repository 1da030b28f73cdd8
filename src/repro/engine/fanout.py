"""One process fan-out with bounded retries, for the experiment grid
(:func:`repro.bench.parallel.run_grid`) and the cluster engine's shards.

Both evaluate a module-level function over independent, picklable jobs
whose results are pure functions of the jobs.  ``workers <= 1`` (or one
job) runs in process, with no pickling; otherwise each round submits the
pending jobs to a **fresh** ``ProcessPoolExecutor``: a ``BrokenProcessPool``
poisons its pool and fails every job queued there, so a retry must never
reuse it.  Both arms make the same attempts.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple

__all__ = ["JobFailure", "MAX_ATTEMPTS", "fan_out"]

#: Total tries per job: the initial run plus two retries.
MAX_ATTEMPTS = 3


class JobFailure(NamedTuple):
    """A job's exception on its last attempt, and the attempts made."""

    error: Exception
    attempts: int


def fan_out(
    worker: Callable, jobs: Sequence, workers: int, final: tuple = ()
) -> list:
    """``worker(job)`` for every job, in job order.  A job that raises is
    retried until :data:`MAX_ATTEMPTS` tries are spent, or at once if the
    exception is of a ``final`` type (a deterministic outcome); its slot
    then holds a :class:`JobFailure`, and the other jobs run on."""
    results: list = [None] * len(jobs)
    attempts = [0] * len(jobs)
    pending = list(range(len(jobs)))

    def failed(index: int, exc: Exception) -> list[int]:
        """The job again, or nothing once its failure is final."""
        if attempts[index] < MAX_ATTEMPTS and not isinstance(exc, final):
            return [index]
        results[index] = JobFailure(exc, attempts[index])
        return []

    while pending:
        again: list[int] = []
        if workers <= 1 or len(jobs) <= 1:
            for index in pending:
                attempts[index] += 1
                try:
                    results[index] = worker(jobs[index])
                except Exception as exc:
                    again += failed(index, exc)
        else:
            with ProcessPoolExecutor(min(workers, len(pending))) as pool:
                submitted = []
                for index in pending:
                    attempts[index] += 1
                    try:
                        submitted.append((index, pool.submit(worker, jobs[index])))
                    except Exception as exc:  # submit() on a broken pool
                        again += failed(index, exc)
                for index, future in submitted:
                    try:
                        results[index] = future.result()
                    except Exception as exc:
                        again += failed(index, exc)
        pending = again
    return results
