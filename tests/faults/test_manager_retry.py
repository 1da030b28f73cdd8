"""Tests for the buffer manager's retry and graceful-degradation paths."""

import pytest

from repro.bufferpool.background import Checkpointer
from repro.bufferpool.recovery import recover, simulate_crash
from repro.errors import IOFaultError, RetriesExhaustedError
from repro.faults.plan import FaultKind
from repro.faults.retry import RetryPolicy
from repro.storage.clock import to_ticks

from tests.faults.conftest import scripted_manager

TRANSIENT_READ = FaultKind.TRANSIENT_READ
TRANSIENT_WRITE = FaultKind.TRANSIENT_WRITE
PERMANENT = FaultKind.PERMANENT_MEDIA
TORN = FaultKind.TORN_BATCH


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_us=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(backoff_us=50.0, multiplier=2.0,
                             max_backoff_us=300.0)
        assert policy.backoff_for(1) == 50.0
        assert policy.backoff_for(2) == 100.0
        assert policy.backoff_for(3) == 200.0
        assert policy.backoff_for(4) == 300.0  # capped
        with pytest.raises(ValueError):
            policy.backoff_for(0)

    def test_should_retry(self):
        policy = RetryPolicy(max_attempts=3)
        transient = IOFaultError("read", (1,), "transient")
        permanent = IOFaultError("read", (1,), "dead", permanent=True)
        assert policy.should_retry(transient, 1)
        assert policy.should_retry(transient, 2)
        assert not policy.should_retry(transient, 3)
        assert not policy.should_retry(permanent, 1)


class TestReadRetry:
    def test_read_succeeds_after_transient_faults(self):
        manager, _ = scripted_manager([TRANSIENT_READ, TRANSIENT_READ])
        clock_before = manager.device.clock.ticks
        assert manager.read_page(3) == 0
        stats = manager.stats
        assert stats.io_faults == 2
        assert stats.io_retries == 2
        expected_backoff = (to_ticks(manager.retry.backoff_for(1))
                            + to_ticks(manager.retry.backoff_for(2)))
        assert stats.retry_backoff_ticks == expected_backoff
        # Backoff is charged to the virtual clock, on top of the I/O costs.
        assert manager.device.clock.ticks - clock_before > expected_backoff

    def test_read_retries_exhausted(self):
        retry = RetryPolicy(max_attempts=2)
        manager, _ = scripted_manager([TRANSIENT_READ] * 5, retry=retry)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            manager.read_page(3)
        assert excinfo.value.attempts == 2
        assert manager.stats.io_faults == 2
        assert manager.stats.io_retries == 1
        assert not manager.contains(3)

    def test_permanent_read_fault_is_never_retried(self):
        manager, _ = scripted_manager([(PERMANENT, (3,))])
        with pytest.raises(IOFaultError) as excinfo:
            manager.read_page(3)
        assert excinfo.value.permanent
        assert manager.stats.io_faults == 1
        assert manager.stats.io_retries == 0


class TestWriteBackRetry:
    def make_dirty(self, manager, pages):
        for page in pages:
            manager.write_page(page)

    def test_torn_batch_prefix_clean_remainder_retried(self):
        manager, _ = scripted_manager([None, None, None, (TORN, 2)])
        self.make_dirty(manager, [1, 2, 3])
        written = manager._write_back([1, 2, 3])
        assert written == 3
        assert manager._dirty_set == set()
        stats = manager.stats
        assert stats.degraded_writebacks == 1
        assert stats.io_faults == 1
        assert stats.io_retries == 1
        assert stats.writebacks == 3

    def test_torn_batch_remainder_stays_dirty_when_budget_spent(self):
        retry = RetryPolicy(max_attempts=1)
        script = [None, None, None, (TORN, 1)]
        manager, _ = scripted_manager(script, retry=retry)
        self.make_dirty(manager, [1, 2, 3])
        # max_attempts=1 leaves no budget for fruitless retries: the torn
        # prefix lands, the remainder stays dirty for a later write-back.
        written = manager._write_back([1, 2, 3])
        assert written == 1
        assert manager._dirty_set == {2, 3}
        assert manager.stats.failed_writebacks == 2
        # The survivors are re-queued: the next write-back covers them.
        assert manager._write_back([2, 3]) == 2
        assert manager._dirty_set == set()

    def test_progress_resets_the_attempt_budget(self):
        retry = RetryPolicy(max_attempts=2)
        # Each torn write lands one more page; with a fixed budget of 2 the
        # repeated tears only succeed because progress resets the counter.
        script = [None] * 4 + [(TORN, 1), (TORN, 1), (TORN, 1)]
        manager, _ = scripted_manager(script, retry=retry)
        self.make_dirty(manager, [1, 2, 3, 4])
        assert manager._write_back([1, 2, 3, 4]) == 4
        assert manager.stats.degraded_writebacks == 3

    def test_permanent_write_fault_not_retried(self):
        manager, injector = scripted_manager([None, (PERMANENT, (5,))])
        self.make_dirty(manager, [5])
        assert manager._write_back([5]) == 0
        assert manager._dirty_set == {5}
        assert manager.stats.failed_writebacks == 1
        assert manager.stats.io_retries == 0
        assert injector.script == []  # no further device attempts


class TestDegradedEviction:
    def test_failed_victim_falls_back_to_clean_page(self):
        retry = RetryPolicy(max_attempts=1)
        # Ops: load 0 (miss read), load 1 (miss read), write-back of victim
        # 0 fails, fallback eviction of 1, read of 2.
        script = [None, None, TRANSIENT_WRITE]
        manager, _ = scripted_manager(script, capacity=2, retry=retry)
        manager.write_page(0)
        manager.read_page(1)
        manager.read_page(2)  # miss: LRU victim is dirty page 0
        assert manager.contains(0)  # still resident, still dirty
        assert 0 in manager._dirty_set
        assert not manager.contains(1)  # the clean fallback was evicted
        assert manager.contains(2)
        stats = manager.stats
        assert stats.degraded_evictions == 1
        assert stats.failed_writebacks == 1

    def test_no_clean_fallback_raises(self):
        retry = RetryPolicy(max_attempts=1)
        script = [None, TRANSIENT_WRITE]
        manager, _ = scripted_manager(script, capacity=1, retry=retry)
        manager.write_page(0)
        with pytest.raises(RetriesExhaustedError):
            manager.read_page(1)


class TestCheckpointWithheld:
    def test_flush_all_withholds_checkpoint_until_clean(self):
        retry = RetryPolicy(max_attempts=1)
        script = [None, TRANSIENT_WRITE]
        manager, _ = scripted_manager(script, retry=retry, with_wal=True)
        manager.write_page(0)
        wal = manager.wal
        checkpoint_before = wal.last_checkpoint_lsn
        manager.flush_all()  # the write-back fails; page 0 stays dirty
        assert manager._dirty_set == {0}
        assert wal.last_checkpoint_lsn == checkpoint_before
        manager.flush_all()  # script exhausted: succeeds
        assert manager._dirty_set == set()
        assert wal.last_checkpoint_lsn > checkpoint_before

    def test_checkpointer_counts_skipped_checkpoints(self):
        retry = RetryPolicy(max_attempts=1)
        script = [None, TRANSIENT_WRITE]
        manager, _ = scripted_manager(script, retry=retry, with_wal=True)
        manager.write_page(0)
        checkpointer = Checkpointer(manager, interval_us=1.0)
        checkpointer.checkpoint()
        assert checkpointer.checkpoints_skipped == 1
        checkpointer.checkpoint()
        assert checkpointer.checkpoints_skipped == 1
        assert manager._dirty_set == set()


class TestRecoveryRetry:
    def test_redo_retries_transient_faults(self):
        manager, injector = scripted_manager([None], with_wal=True)
        manager.write_page(9)
        manager.wal.flush()
        image = simulate_crash(manager)
        # The crashed device now throws one transient fault at the redo.
        injector.script.append(TRANSIENT_WRITE)
        report = recover(image)
        assert report.redo_applied == 1
        assert report.redo_retries == 1
        assert image.device.peek(9) == 1

    def test_redo_gives_up_loudly_when_retries_exhausted(self):
        manager, injector = scripted_manager([None], with_wal=True)
        manager.write_page(9)
        manager.wal.flush()
        image = simulate_crash(manager)
        injector.script.extend([TRANSIENT_WRITE] * 10)
        with pytest.raises(RetriesExhaustedError):
            recover(image, retry=RetryPolicy(max_attempts=2))
