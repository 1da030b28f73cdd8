"""Tests for run_grid's retry-and-report failure handling (GridFailure)."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench.parallel import (
    MAX_JOB_ATTEMPTS,
    GridFailure,
    GridJob,
    TraceSpec,
    run_grid,
)
from repro.bench.runner import StackConfig
from repro.engine import fanout
from repro.engine.metrics import RunMetrics
from repro.workloads.synthetic import MS

from tests.bufferpool.conftest import TEST_PROFILE

TRACE = TraceSpec(MS, num_pages=256, num_ops=400, seed=1)


def config(policy: str = "lru") -> StackConfig:
    return StackConfig(
        profile=TEST_PROFILE, policy=policy, variant="baseline", num_pages=256
    )


def jobs_with_one_bad() -> list[GridJob]:
    return [
        GridJob(config("lru"), trace=TRACE, label="good-1"),
        GridJob(config("no-such-policy"), trace=TRACE, label="bad"),
        GridJob(config("clock"), trace=TRACE, label="good-2"),
    ]


class TestSerialFailures:
    def test_bad_job_reported_in_slot_good_jobs_complete(self):
        results = run_grid(jobs_with_one_bad(), workers=1)
        assert isinstance(results[0], RunMetrics)
        assert isinstance(results[2], RunMetrics)
        failure = results[1]
        assert isinstance(failure, GridFailure)
        assert failure.label == "bad"
        assert failure.attempts == MAX_JOB_ATTEMPTS
        assert "no-such-policy" in failure.error

    def test_gridfailure_is_falsy_for_filtering(self):
        results = run_grid(jobs_with_one_bad(), workers=1)
        metrics = [result for result in results if result]
        assert len(metrics) == 2
        assert all(isinstance(result, RunMetrics) for result in metrics)


class TestParallelFailures:
    def test_bad_job_reported_in_slot_good_jobs_complete(self):
        results = run_grid(jobs_with_one_bad(), workers=2)
        assert isinstance(results[0], RunMetrics)
        assert isinstance(results[2], RunMetrics)
        failure = results[1]
        assert isinstance(failure, GridFailure)
        assert failure.attempts == MAX_JOB_ATTEMPTS
        assert failure.config.policy == "no-such-policy"

    def test_parallel_failures_match_serial(self):
        serial = run_grid(jobs_with_one_bad(), workers=1)
        parallel_results = run_grid(jobs_with_one_bad(), workers=2)
        for s, p in zip(serial, parallel_results):
            assert type(s) is type(p)
            if isinstance(s, RunMetrics):
                assert s == p


class _FlakyPool:
    """Stands in for ProcessPoolExecutor: the first pool is born broken
    (every submit raises BrokenProcessPool), later pools run inline."""

    built = 0

    def __init__(self, max_workers):
        type(self).built += 1
        self.broken = type(self).built == 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        if self.broken:
            raise BrokenProcessPool("A child process terminated abruptly")
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # pragma: no cover - defensive
            future.set_exception(exc)
        return future


class TestBrokenPoolRetry:
    def test_jobs_survive_a_broken_pool_on_a_fresh_one(self, monkeypatch):
        _FlakyPool.built = 0
        monkeypatch.setattr(fanout, "ProcessPoolExecutor", _FlakyPool)
        jobs = [
            GridJob(config("lru"), trace=TRACE, label="a"),
            GridJob(config("clock"), trace=TRACE, label="b"),
        ]
        results = run_grid(jobs, workers=2)
        assert all(isinstance(result, RunMetrics) for result in results)
        assert [result.label for result in results] == ["a", "b"]
        # The broken pool was abandoned and a fresh one built for the retry.
        assert _FlakyPool.built == 2

    def test_persistently_broken_pool_reports_failures(self, monkeypatch):
        class AlwaysBroken(_FlakyPool):
            def __init__(self, max_workers):
                self.broken = True

        monkeypatch.setattr(fanout, "ProcessPoolExecutor", AlwaysBroken)
        jobs = [
            GridJob(config("lru"), trace=TRACE, label="doomed-1"),
            GridJob(config("clock"), trace=TRACE, label="doomed-2"),
        ]
        results = run_grid(jobs, workers=2)
        for failure in results:
            assert isinstance(failure, GridFailure)
            assert failure.attempts == MAX_JOB_ATTEMPTS
            assert "BrokenProcessPool" in failure.error


class TestEdgeCases:
    def test_empty_grid(self):
        assert run_grid([], workers=4) == []

    def test_failure_label_falls_back_to_config_label(self):
        job = GridJob(config("no-such-policy"), trace=TRACE)
        results = run_grid([job], workers=1)
        failure = results[0]
        assert isinstance(failure, GridFailure)
        assert failure.label == "no-such-policy/baseline"
