"""Torn WAL flushes: partial log pages are detectable and excluded from redo.

Group commit writes one physical log page per record group; power loss
mid-flush must leave a *detectably* partial page whose whole group drops
out of the redo window.  These tests drive the tear through
``WriteAheadLog.flush_hook`` — the same entry point the crash-point
engine uses — and check the page image, the durable index, and recovery
behaviour all agree that a torn group was never committed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import CrashImage, recover, simulate_crash
from repro.bufferpool.wal import (
    _SCAN_WINDOW,
    _WAL_PAGES,
    WalPageImage,
    WalRecordKind,
    WriteAheadLog,
    _checksum_column,
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


def counting_peeks(wal):
    """Record every log page read off ``wal``'s device, in order, whether
    through ``peek_many`` (the scan's windows) or ``peek``."""
    read = []
    device = wal.device
    peek, peek_many = device.peek, device.peek_many

    def counted(page):
        read.append(page)
        return peek(page)

    def counted_many(pages):
        pages = list(pages)
        read.extend(pages)
        return peek_many(pages)

    device.peek, device.peek_many = counted, counted_many
    return read


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

    def test_two_recoveries_read_each_log_page_once(self):
        device = SimulatedSSD(TEST_PROFILE, num_pages=16)
        device.format_pages(range(16))
        wal = WriteAheadLog(device.clock, records_per_page=4)
        peeked = counting_peeks(wal)
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
        peeked = counting_peeks(wal)
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


def scan_page_by_page(wal):
    """The per-page scan the windowed ``verify_durable`` replaced, kept as
    its reference: ``(pages, records)`` that verify, resuming where
    ``wal``'s last scan stopped."""
    page_no, verified = wal._verified_pages, wal._verified_lsn
    while page_no < wal.pages_written:
        image = wal.device.peek(page_no % _WAL_PAGES)
        if not (isinstance(image, WalPageImage) and image.is_valid
                and image.first_lsn == verified + 1):
            break
        verified += image.intended_count
        page_no += 1
    return page_no, verified


def verify_page_by_page(wal):
    """The reference ``verify_durable``: ``RuntimeError`` on a divergence."""
    page_no, verified = scan_page_by_page(wal)
    if verified != wal.durable_lsn:
        raise RuntimeError("diverges")
    return page_no, verified


def scan_outcome(scan, wal):
    """``scan(wal)``'s ``(pages, records)`` verified, or the error."""
    try:
        return scan(wal)
    except RuntimeError:
        return RuntimeError


def windowed(wal):
    """``verify_durable``, and the cache it leaves for the next scan."""
    verified = wal.verify_durable()
    assert verified == wal._verified_lsn
    return wal._verified_pages, verified


def grow_log(wal, rng, pages, tear_page=None):
    """Append random groups — full pages, early flushes, checkpoints — until
    ``pages`` log pages are written or the flush of ``tear_page`` tears."""

    def hook(records):
        if wal.pages_written == tear_page:
            return rng.randrange(len(records))
        return None

    wal.flush_hook = hook
    try:
        while wal.pages_written < pages:
            roll = rng.random()
            if roll < 0.1:
                wal.checkpoint_record()
            elif roll < 0.25:
                wal.log_update(rng.randrange(50), payload=None)
                wal.flush()
            else:
                wal.log_update(rng.randrange(50), payload=(rng.randrange(9), "v"))
    except PowerFailure:
        assert wal.pages_written == tear_page + 1
    finally:
        wal.flush_hook = None


#: Where a fault lands, as an offset past the pages the first scan verified
#: — the second scan's windows start there: the first page of a window, the
#: last, and either side of the window boundary.
WINDOW_OFFSETS = (0, 1, _SCAN_WINDOW - 2, _SCAN_WINDOW - 1, _SCAN_WINDOW,
                  _SCAN_WINDOW + 1, 2 * _SCAN_WINDOW - 1, 2 * _SCAN_WINDOW)


class TestWindowedScan:
    """The windowed, column-checked ``verify_durable`` against the per-page
    scan it replaced: same end of log, same cache, same ``RuntimeError``;
    and each log page read once per scan."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        records_per_page=st.integers(1, 4),
        resume=st.sampled_from([0, 1, 40, _SCAN_WINDOW - 1, _SCAN_WINDOW + 3]),
        offset=st.one_of(st.sampled_from(WINDOW_OFFSETS), st.integers(0, 600)),
        fault=st.sampled_from(["none", "tear", "foreign", "lost", "stale", "rot"]),
        tail=st.integers(0, 3),
    )
    def test_matches_the_per_page_scan(
        self, seed, records_per_page, resume, offset, fault, tail
    ):
        rng = random.Random(seed)
        wal = WriteAheadLog(VirtualClock(), records_per_page=records_per_page)
        grow_log(wal, rng, resume)
        assert scan_outcome(windowed, wal) == (resume, wal.durable_lsn)
        target = resume + offset
        if fault == "tear":
            grow_log(wal, rng, target + 1 + tail, tear_page=target)
        else:
            grow_log(wal, rng, target + 1 + tail)
            payloads = wal.device._payloads
            if fault == "foreign":  # the image's fields, but not an image
                payloads[target] = tuple(payloads[target])
            elif fault == "lost":  # an acknowledged page never landed
                del payloads[target]
            elif fault == "stale" and target > 0:  # a valid, earlier image
                payloads[target] = payloads[target - 1]
            elif fault == "rot":  # a whole group whose first record changed
                image = payloads[target]
                rotten = ("rot",) + image.payloads[1:]
                payloads[target] = image._replace(payloads=rotten)
        expected = scan_outcome(verify_page_by_page, wal)
        # The scan reads whole windows up to the one where the log ends.
        end, _ = scan_page_by_page(wal)
        windows = (end - resume) // _SCAN_WINDOW + 1
        last_read = min(resume + windows * _SCAN_WINDOW, wal.pages_written)
        read = counting_peeks(wal)
        assert scan_outcome(windowed, wal) == expected
        assert read == list(range(resume, last_read))
        if fault == "tear":
            assert expected == (target, wal.durable_lsn)
        elif fault in ("foreign", "lost", "rot") or (fault == "stale" and target > 0):
            assert expected is RuntimeError  # every written page was acknowledged

    @pytest.mark.parametrize("tear_page", [
        0, _SCAN_WINDOW - 1, _SCAN_WINDOW, 2 * _SCAN_WINDOW - 1, 2 * _SCAN_WINDOW,
    ])
    def test_a_tear_at_a_window_edge_ends_the_log(self, tear_page):
        wal = make_wal(records_per_page=1)
        grow_log(wal, random.Random(tear_page), tear_page + 5, tear_page=tear_page)
        assert wal.pages_written == tear_page + 1
        read = counting_peeks(wal)
        assert wal.verify_durable() == wal.durable_lsn
        assert wal._verified_pages == tear_page
        assert read == list(range(tear_page + 1))  # the torn window read once

    def test_a_non_image_at_the_tail_is_a_divergence(self):
        wal = make_wal(records_per_page=1)
        grow_log(wal, random.Random(1), _SCAN_WINDOW + 1)
        wal.device._payloads[_SCAN_WINDOW] = "not a log page"
        with pytest.raises(RuntimeError, match="diverges"):
            wal.verify_durable()

    def test_a_lost_acknowledged_page_is_a_divergence(self):
        wal = make_wal(records_per_page=2)
        grow_log(wal, random.Random(2), _SCAN_WINDOW)
        del wal.device._payloads[_SCAN_WINDOW - 1]
        with pytest.raises(RuntimeError, match="diverges"):
            wal.verify_durable()
        assert (wal._verified_pages, wal._verified_lsn) == (0, 0)


class TestChecksumColumn:
    """The scan's checksum column is ``_records_checksum`` group by group,
    over whole and torn groups alike."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), records_per_page=st.integers(1, 6),
           torn=st.booleans())
    def test_equals_the_one_group_checksum(self, seed, records_per_page, torn):
        rng = random.Random(seed)
        wal = WriteAheadLog(VirtualClock(), records_per_page=records_per_page)
        grow_log(wal, rng, 30, tear_page=29 if torn else None)
        images = wal.device.peek_many(range(wal.pages_written))
        firsts, kinds, pages, payloads, _, stored = zip(*images)
        column = _checksum_column(firsts, kinds, pages, payloads)
        assert column == tuple(map(_records_checksum, firsts, kinds, pages, payloads))
        assert (column == stored) is not torn  # a torn prefix fails its checksum
