"""Torn WAL flushes: partial log pages are detectable and excluded from redo.

Group commit writes one physical log page per record group; power loss
mid-flush must leave a *detectably* partial page whose whole group drops
out of the redo window.  These tests drive the tear through
``WriteAheadLog.flush_hook`` — the same entry point the crash-point
engine uses — and check the page image, the durable index, and recovery
behaviour all agree that a torn group was never committed.
"""

import pytest

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import CrashImage, recover, simulate_crash
from repro.bufferpool.wal import (
    WalPageImage,
    WalRecordKind,
    WriteAheadLog,
    _records_checksum,
)
from repro.errors import PowerFailure
from repro.policies.lru import LRUPolicy
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD

from tests.bufferpool.conftest import TEST_PROFILE


def make_wal(records_per_page=4):
    return WriteAheadLog(VirtualClock(), records_per_page=records_per_page)


def tear_at(wal, j, times=1):
    """Arm the flush hook to tear the next ``times`` flushes after ``j``."""
    remaining = [times]

    def hook(records):
        if remaining[0] > 0:
            remaining[0] -= 1
            return j
        return None

    wal.flush_hook = hook


class TestPageImage:
    def test_a_flushed_page_reads_back_as_its_fields(self):
        wal = make_wal()
        wal.log_update(3, payload=7)
        wal.checkpoint_record()
        image = wal.device.peek(0)
        kinds = (WalRecordKind.UPDATE, WalRecordKind.CHECKPOINT)
        checksum = _records_checksum(1, kinds, (3, None), (7, None))
        assert image == WalPageImage(1, kinds, (3, None), (7, None), 2, checksum)
        assert image._fields == (
            "first_lsn", "kinds", "pages", "payloads", "intended_count",
            "checksum",
        )
        assert repr(image) == (
            f"WalPageImage(first_lsn=1, kinds={kinds!r}, pages=(3, None), "
            f"payloads=(7, None), intended_count=2, checksum={checksum})"
        )
        assert image.is_valid
        assert [(r.lsn, r.page) for r in image.records] == [(1, 3), (2, None)]
        with pytest.raises(AttributeError):
            image.checksum = 0


class TestTornFlush:
    def test_torn_flush_raises_power_failure(self):
        wal = make_wal()
        for page in range(3):
            wal.log_update(page, payload=1)
        tear_at(wal, 2)
        with pytest.raises(PowerFailure) as exc_info:
            wal.flush()
        assert exc_info.value.site == "wal-flush"
        assert wal.torn_flushes == 1

    def test_torn_image_is_detectably_partial(self):
        wal = make_wal()
        for page in range(3):
            wal.log_update(page, payload=1)
        tear_at(wal, 1)
        with pytest.raises(PowerFailure):
            wal.flush()
        image = wal.device.peek(0)
        assert isinstance(image, WalPageImage)
        assert len(image.records) == 1
        assert image.intended_count == 3
        assert not image.is_valid
        # The checksum covers the full intended group, not the prefix.
        assert image.checksum == _records_checksum(
            1, (WalRecordKind.UPDATE,) * 3, (0, 1, 2), (1, 1, 1)
        )

    def test_torn_records_are_not_durable(self):
        wal = make_wal()
        # First group lands cleanly.
        for page in range(4):
            wal.log_update(page, payload=1)
        assert wal.durable_lsn == 4
        # Second group tears: none of its records may become durable,
        # not even the stored prefix.
        for page in range(3):
            wal.log_update(10 + page, payload=1)
        tear_at(wal, 2)
        with pytest.raises(PowerFailure):
            wal.flush()
        assert wal.durable_lsn == 4
        assert [r.lsn for r in wal.durable_records()] == [1, 2, 3, 4]
        assert wal.records_since(0) == wal.durable_records()
        assert wal.verify_durable_records() == wal.durable_records()

    def test_tear_at_zero_lands_nothing(self):
        wal = make_wal()
        wal.log_update(7, payload=1)
        tear_at(wal, 0)
        with pytest.raises(PowerFailure):
            wal.flush()
        image = wal.device.peek(0)
        assert image.records == ()
        assert not image.is_valid
        assert wal.durable_lsn == 0

    def test_out_of_range_tear_means_atomic_land(self):
        wal = make_wal()
        wal.log_update(7, payload=1)
        tear_at(wal, 99)
        wal.flush()  # no PowerFailure: the whole group landed
        assert wal.durable_lsn == 1
        assert wal.torn_flushes == 0

    def test_torn_checkpoint_never_advances_checkpoint_lsn(self):
        wal = make_wal()
        for page in range(4):
            wal.log_update(page, payload=1)
        assert wal.durable_lsn == 4
        tear_at(wal, 0)
        with pytest.raises(PowerFailure) as exc_info:
            wal.checkpoint_record()
        assert exc_info.value.site == "wal-checkpoint"
        assert wal.last_checkpoint_lsn == 0
        assert wal.checkpoints == 0


class TestTornFlushRecovery:
    def make_manager(self, num_pages=64):
        device = SimulatedSSD(TEST_PROFILE, num_pages=num_pages)
        device.format_pages(range(num_pages))
        wal = WriteAheadLog(device.clock, records_per_page=100)
        manager = BufferPoolManager(8, LRUPolicy(), device, wal=wal)
        return manager, wal

    def test_recovery_excludes_torn_group(self):
        manager, wal = self.make_manager()
        # Committed prefix: two updates, durably flushed.
        manager.write_page(1)
        manager.write_page(2)
        wal.flush()
        # Unflushed tail tears on its commit barrier.
        manager.write_page(3)
        manager.write_page(1)
        tear_at(wal, 1)
        with pytest.raises(PowerFailure):
            wal.flush()

        image = simulate_crash(manager)
        report = recover(image)
        assert report.redo_applied == 2
        device = image.device
        assert device.peek(1) == 1  # the torn second update never committed
        assert device.peek(2) == 1
        assert device.peek(3) == 0  # format payload: update was in the tear

    def test_recovery_is_deterministic_after_tear(self):
        results = []
        for _ in range(2):
            manager, wal = self.make_manager()
            for page in (1, 2, 3):
                manager.write_page(page)
            wal.flush()
            manager.write_page(2)
            tear_at(wal, 0)
            with pytest.raises(PowerFailure):
                wal.flush()
            image = simulate_crash(manager)
            report = recover(image)
            results.append(
                (report.redo_applied, [image.device.peek(p) for p in (1, 2, 3)])
            )
        assert results[0] == results[1]


class TestIncrementalVerification:
    """``verify_durable`` resumes where the last scan stopped: each log
    page is read off the device once, however often recovery runs."""

    @staticmethod
    def counting_peeks(wal):
        peeked = []
        peek = wal.device.peek

        def counted(page):
            peeked.append(page)
            return peek(page)

        wal.device.peek = counted
        return peeked

    def test_two_recoveries_read_each_log_page_once(self):
        device = SimulatedSSD(TEST_PROFILE, num_pages=16)
        device.format_pages(range(16))
        wal = WriteAheadLog(device.clock, records_per_page=4)
        peeked = self.counting_peeks(wal)
        image = CrashImage(device=device, wal=wal, lost_dirty_pages=())
        for page in range(8):
            wal.log_update(page, payload=1)
        assert recover(image).redo_applied == 8
        assert peeked == [0, 1]
        for page in range(6):  # the log grows: one full page and a tail
            wal.log_update(page, payload=2)
        wal.flush()
        assert recover(image).redo_applied == 14
        assert peeked == [0, 1, 2, 3]  # only the two new pages
        assert wal.verify_durable_records() == wal.durable_records()
        assert peeked == [0, 1, 2, 3]

    def test_a_torn_tail_still_ends_the_scan(self):
        wal = make_wal()
        peeked = self.counting_peeks(wal)
        for page in range(4):
            wal.log_update(page, payload=1)
        assert wal.verify_durable() == 4
        for page in range(3):
            wal.log_update(10 + page, payload=1)
        tear_at(wal, 2)
        with pytest.raises(PowerFailure):
            wal.flush()
        # The torn page is read and ends the scan; nothing past it counts.
        assert wal.verify_durable() == 4
        assert wal.verify_durable_records() == wal.durable_records()
        assert [r.lsn for r in wal.durable_records()] == [1, 2, 3, 4]
        assert peeked == [0, 1, 1]
