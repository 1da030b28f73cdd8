"""``WriteAheadLog.append_batch`` leaves the log ``log_update`` leaves.

A replica's log is what promotion recovers from, so the batch append that
receives a shipment must be *physically* the per-record append: same
LSNs, same grouping into log pages, same page images and checksums, the
flush hook consulted once per log page, and the same durable prefix when
a flush tears.  The per-record spelling is the reference throughout.
``append_deferred`` (the inlined loop's append, whose pages land at the
next ``write_out``) must leave what ``append_batch`` and ``flush`` leave,
device counters and clock included.
"""

import dataclasses
import zlib

import pytest

from repro.bufferpool.wal import (
    WalRecord,
    WalRecordKind,
    WriteAheadLog,
    _records_checksum,
)
from repro.errors import PowerFailure
from repro.storage.clock import VirtualClock

from tests.differential import wal_state

#: Straddling ``records_per_page`` (32): none, one, a page less one, a
#: page, a page and one, two pages and a tail.
SIZES = (0, 1, 31, 32, 33, 70)


def updates(n, start=0):
    """``n`` updates in which pages repeat and payloads vary in type."""
    pages = [(start + 7 * i) % 23 for i in range(n)]
    payloads = [(start + i, "v") if i % 3 else start + i + 1 for i in range(n)]
    return pages, payloads


def physical_state(wal):
    """Everything of the log a crash leaves behind or a caller can read."""
    return {
        "lsn": wal.lsn,
        "durable_lsn": wal.durable_lsn,
        "durable": wal.durable_records(),
        "pages_written": wal.pages_written,
        "torn_flushes": wal.torn_flushes,
        "images": wal.device.snapshot_payloads(),
        "device_writes": wal.device.stats.writes,
        "ticks": wal.device.clock.ticks,
    }


def twin_logs(pending):
    """Two fresh logs, each with ``pending`` records already buffered."""
    logs = WriteAheadLog(VirtualClock()), WriteAheadLog(VirtualClock())
    for wal in logs:
        for page, payload in zip(*updates(pending, start=100)):
            wal.log_update(page, payload)
    return logs


@pytest.mark.parametrize("pending", (0, 5, 31))
@pytest.mark.parametrize("n", SIZES)
def test_batch_equals_record_by_record(n, pending):
    batched, stepped = twin_logs(pending)
    pages, payloads = updates(n)

    last = batched.append_batch(pages, payloads)
    stepped_last = stepped.lsn
    for page, payload in zip(pages, payloads):
        stepped_last = stepped.log_update(page, payload)

    assert last == stepped_last == pending + n
    assert physical_state(batched) == physical_state(stepped)
    assert batched.pages_written == (pending + n) // 32
    batched.flush()
    stepped.flush()
    assert physical_state(batched) == physical_state(stepped)
    assert batched.verify_durable_records() == stepped.verify_durable_records()
    assert [record.lsn for record in batched.durable_records()] == list(
        range(1, pending + n + 1)
    )


@pytest.mark.parametrize("flush", (False, True), ids=("append", "append+flush"))
@pytest.mark.parametrize("per_page", (1, 3, 32))
@pytest.mark.parametrize("pending", (0, 2, 31))
@pytest.mark.parametrize("n", SIZES)
def test_deferred_batch_equals_batch_then_flush(n, pending, per_page, flush):
    """Two deferred appends, then one ``write_out``: the same log, images,
    device counters (``write_ticks`` included) and clock."""
    logs = tuple(WriteAheadLog(VirtualClock(), records_per_page=per_page)
                 for _ in range(2))
    for wal in logs:
        for page, payload in zip(*updates(pending % per_page, start=100)):
            wal.log_update(page, payload)
    deferred, reference = logs
    for start in (0, 1000):
        pages, payloads = updates(n, start)
        deferred.append_deferred(pages, payloads, flush)
        reference.append_batch(pages, payloads)
        if flush:
            reference.flush()
        assert deferred.durable_lsn == reference.durable_lsn
        assert deferred.room == reference.room
        assert deferred.device.clock.ticks == reference.device.clock.ticks
    # Timed and durable, not stored: each page waits as one group size.
    assert deferred.pages_written + len(deferred.unwritten) == reference.pages_written
    if deferred.unwritten:
        deferred.write_out()
    assert deferred.unwritten == []
    assert physical_state(deferred) == physical_state(reference)
    assert dataclasses.asdict(deferred.device.stats) == dataclasses.asdict(
        reference.device.stats
    )
    assert wal_state(deferred) == wal_state(reference)


@pytest.mark.parametrize("pending", (0, 31))
@pytest.mark.parametrize("append", ("append_batch", "append_deferred"))
def test_unequal_columns_are_refused_before_anything_is_appended(append, pending):
    """Two pages and one payload used to append two records and one image:
    ``lsn`` and ``durable_lsn`` counted two, the durable records one, and
    the checksum zipped to the shorter column, so verification passed."""
    refused, untouched = twin_logs(pending)
    for pages, payloads in (([1, 2], [5]), ([1], [5, 6]), ([], [5])):
        with pytest.raises(ValueError, match="pages but .* payloads"):
            getattr(refused, append)(pages, payloads)
        assert physical_state(refused) == physical_state(untouched)
    refused.flush()
    untouched.flush()
    assert physical_state(refused) == physical_state(untouched)
    assert refused.redo_since(0) == untouched.redo_since(0)
    assert refused.verify_durable_records() == untouched.verify_durable_records()


def test_the_hook_sees_each_log_page_once():
    batched, stepped = twin_logs(5)
    seen_batched, seen_stepped = [], []
    batched.flush_hook = seen_batched.append  # returns None: no tear
    stepped.flush_hook = seen_stepped.append
    pages, payloads = updates(70)
    batched.append_batch(pages, payloads)
    for page, payload in zip(pages, payloads):
        stepped.log_update(page, payload)
    assert seen_batched == seen_stepped
    assert [len(group) for group in seen_batched] == [32, 32]


@pytest.mark.parametrize("per_page", (4, 32))
@pytest.mark.parametrize("pending", (0, 3))
@pytest.mark.parametrize("past_the_page", (-1, 0, 1))
def test_the_page_boundary_with_a_recording_hook(per_page, pending, past_the_page):
    """``pending + n`` one short of a page (appended without a flush),
    exactly a page, and one record past it."""
    n = per_page - pending + past_the_page
    logs = tuple(
        WriteAheadLog(VirtualClock(), records_per_page=per_page) for _ in range(2)
    )
    calls = ([], [])
    for wal, seen in zip(logs, calls):
        for page, payload in zip(*updates(pending, start=100)):
            wal.log_update(page, payload)
        wal.flush_hook = seen.append
    batched, stepped = logs
    pages, payloads = updates(n)

    batched.append_batch(pages, payloads)
    for page, payload in zip(pages, payloads):
        stepped.log_update(page, payload)
    assert calls[0] == calls[1]
    assert len(calls[0]) == (past_the_page >= 0)
    assert physical_state(batched) == physical_state(stepped)

    # What was left buffered fills the next page the same way.
    pages, payloads = updates(per_page + 2, start=50)
    batched.append_batch(pages, payloads)
    for page, payload in zip(pages, payloads):
        stepped.log_update(page, payload)
    assert calls[0] == calls[1]
    assert wal_state(batched) == wal_state(stepped)


def tear_second_flush(wal, tear):
    """Arm the flush hook to tear the second log page after ``tear``."""
    flushes = []

    def hook(group):
        flushes.append(len(group))
        return tear if len(flushes) == 2 else None

    wal.flush_hook = hook


@pytest.mark.parametrize("tear", (0, 1, 17, 31))
def test_a_tear_mid_batch_leaves_the_same_durable_prefix(tear):
    batched, stepped = twin_logs(5)
    tear_second_flush(batched, tear)
    tear_second_flush(stepped, tear)
    pages, payloads = updates(70)

    with pytest.raises(PowerFailure) as batch_failure:
        batched.append_batch(pages, payloads)
    with pytest.raises(PowerFailure) as step_failure:
        for page, payload in zip(pages, payloads):
            stepped.log_update(page, payload)

    assert str(batch_failure.value) == str(step_failure.value)
    assert physical_state(batched) == physical_state(stepped)
    # Power failed at the second page: the first is durable, the torn
    # group is not, and nothing after it was ever appended.
    assert batched.durable_lsn == 32
    assert batched.lsn == 64
    assert batched.verify_durable_records() == stepped.verify_durable_records()


def test_checksum_is_the_crc_of_the_value_tuples():
    """The stored CRC covers ``(lsn, kind.value, page, payload)`` per
    record — spelled here the way it was first written."""
    group = (
        WalRecord(1, WalRecordKind.UPDATE, 7, 3),
        WalRecord(2, WalRecordKind.UPDATE, 9, ("tuple", 1.5)),
        WalRecord(3, WalRecordKind.UPDATE, 4, None),
        WalRecord(4, WalRecordKind.CHECKPOINT),
    )
    for records in (group, group[:1], ()):
        columns = [[getattr(r, field) for r in records]
                   for field in ("kind", "page", "payload")]
        assert _records_checksum(1, *columns) == zlib.crc32(repr(tuple(
            (r.lsn, r.kind.value, r.page, r.payload) for r in records
        )).encode())
