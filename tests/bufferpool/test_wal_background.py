"""Tests for the write-ahead log, background writer, and checkpointer."""

import pytest

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.policies.lru import LRUPolicy
from repro.storage.clock import VirtualClock

from tests.bufferpool.conftest import make_device, make_manager


def make_wal_manager(capacity=8, records_per_page=4):
    device = make_device()
    wal = WriteAheadLog(device.clock, records_per_page=records_per_page)
    manager = BufferPoolManager(capacity, LRUPolicy(), device, wal=wal)
    return manager, wal


class TestWriteAheadLog:
    def test_records_accumulate_before_flush(self):
        wal = WriteAheadLog(VirtualClock(), records_per_page=4)
        for _ in range(3):
            wal.log_update(1)
        assert wal.lsn == 3
        assert wal.pages_written == 0

    def test_full_buffer_triggers_sequential_write(self):
        wal = WriteAheadLog(VirtualClock(), records_per_page=4)
        for _ in range(4):
            wal.log_update(1)
        assert wal.pages_written == 1

    def test_explicit_flush(self):
        wal = WriteAheadLog(VirtualClock(), records_per_page=100)
        wal.log_update(1)
        wal.flush()
        assert wal.pages_written == 1
        wal.flush()  # idempotent when empty
        assert wal.pages_written == 1

    def test_checkpoint_record(self):
        wal = WriteAheadLog(VirtualClock(), records_per_page=100)
        wal.checkpoint_record()
        assert wal.checkpoints == 1
        assert wal.pages_written == 1

    def test_lsn_monotonic(self):
        wal = WriteAheadLog(VirtualClock())
        lsns = [wal.log_update(p) for p in range(10)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 10

    def test_invalid_records_per_page(self):
        with pytest.raises(ValueError):
            WriteAheadLog(VirtualClock(), records_per_page=0)

    def test_wal_writes_advance_shared_clock(self):
        clock = VirtualClock()
        wal = WriteAheadLog(clock, records_per_page=1)
        wal.log_update(1)
        assert clock.now_us > 0


class TestWalIntegration:
    def test_page_write_is_logged(self):
        manager, wal = make_wal_manager()
        manager.write_page(3)
        assert wal.lsn == 1

    def test_reads_are_not_logged(self):
        manager, wal = make_wal_manager()
        manager.read_page(3)
        assert wal.lsn == 0

    def test_wal_flushed_before_writeback(self):
        """WAL-before-data ordering: eviction write forces a log flush."""
        manager, wal = make_wal_manager(capacity=2, records_per_page=100)
        manager.write_page(0)
        assert wal.pages_written == 0
        manager.read_page(1)
        manager.read_page(2)  # evicts dirty page 0 -> WAL flush first
        assert wal.pages_written == 1

    def test_checkpoint_writes_wal_record(self):
        manager, wal = make_wal_manager()
        manager.write_page(0)
        manager.flush_all()
        assert wal.checkpoints == 1


class TestBackgroundWriter:
    def test_flushes_dirty_pages(self):
        manager = make_manager(capacity=8)
        for page in range(4):
            manager.write_page(page)
        writer = BackgroundWriter(manager, pages_per_round=2)
        flushed = writer.run_round()
        assert flushed == 2
        assert len(manager.dirty_pages()) == 2
        assert manager.stats.background_writebacks == 2

    def test_single_page_batches_by_default(self):
        manager = make_manager(capacity=8)
        for page in range(4):
            manager.write_page(page)
        BackgroundWriter(manager, pages_per_round=4).run_round()
        assert manager.stats.writeback_batches == 4

    def test_ace_style_batching(self):
        manager = make_manager(capacity=8)
        for page in range(4):
            manager.write_page(page)
        BackgroundWriter(manager, pages_per_round=4, batch_size=4).run_round()
        assert manager.stats.writeback_batches == 1
        assert manager.device.stats.largest_write_batch == 4

    def test_follows_virtual_order(self):
        manager = make_manager(capacity=8)
        manager.write_page(0)
        manager.write_page(1)
        manager.read_page(0)  # 0 becomes MRU; 1 is the LRU dirty page
        writer = BackgroundWriter(manager, pages_per_round=1)
        writer.run_round()
        assert not manager.is_dirty(1)
        assert manager.is_dirty(0)

    def test_idle_round_is_cheap(self):
        manager = make_manager()
        writer = BackgroundWriter(manager)
        assert writer.run_round() == 0
        assert manager.device.stats.writes == 0

    def test_validation(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            BackgroundWriter(manager, pages_per_round=0)
        with pytest.raises(ValueError):
            BackgroundWriter(manager, batch_size=0)


class TestCheckpointer:
    def test_checkpoint_flushes_everything(self):
        manager = make_manager(capacity=8)
        for page in range(5):
            manager.write_page(page)
        checkpointer = Checkpointer(manager, interval_us=1e6, batch_size=2)
        flushed = checkpointer.checkpoint()
        assert flushed == 5
        assert manager.dirty_pages() == []
        assert checkpointer.checkpoints_taken == 1

    def test_maybe_checkpoint_respects_interval(self):
        manager = make_manager(capacity=8)
        manager.write_page(0)
        checkpointer = Checkpointer(manager, interval_us=1e9)
        assert not checkpointer.maybe_checkpoint()
        manager.device.clock.advance(1e9 + 1)
        assert checkpointer.maybe_checkpoint()

    def test_validation(self):
        manager = make_manager()
        with pytest.raises(ValueError):
            Checkpointer(manager, interval_us=0)
        with pytest.raises(ValueError):
            Checkpointer(manager, batch_size=0)
