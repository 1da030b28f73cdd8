"""Write-ahead log on a separate device, as in the paper's setup.

Page updates are logged sequentially before the dirty page can be evicted;
the paper's evaluation keeps the WAL on a separate device "following common
practice", so WAL traffic never competes with bufferpool I/O and is
identical for baseline and ACE runs.  The simulator models group commit:
records accumulate in a WAL buffer and one sequential page write is issued
per ``records_per_page`` records (or on an explicit flush/checkpoint).

Records carry physical redo information (the page's new payload), so
:mod:`repro.bufferpool.recovery` can replay committed work after a
simulated crash — the durability property that makes it safe for both the
classic manager and ACE to delay data-page writes.

Every flushed log page is a :class:`WalPageImage` carrying a checksum over
the *intended* record group, so a flush torn by power loss mid-page leaves
a detectably partial image: the stored prefix no longer matches the
checksum, and recovery excludes the whole torn page from redo instead of
replaying half a group commit.  The crash-point engine drives this through
:attr:`WriteAheadLog.flush_hook`.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from itertools import count, repeat
from operator import attrgetter

from repro.errors import PowerFailure
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile

__all__ = [
    "WriteAheadLog",
    "WalRecord",
    "WalRecordKind",
    "WalPageImage",
    "WAL_DEVICE_PROFILE",
]

#: A fast log device: sequential writes on flash are nearly symmetric and a
#: dedicated WAL volume has shallow queues.
WAL_DEVICE_PROFILE = DeviceProfile(
    name="WAL device",
    alpha=1.0,
    k_r=8,
    k_w=8,
    read_latency_us=40.0,
    submit_overhead_us=0.5,
    queue_overhead_us=0.0,
)

#: Practically unbounded log capacity, recycled by checkpoints.
_WAL_PAGES = 1 << 22


class WalRecordKind(Enum):
    """Types of log records."""

    UPDATE = "update"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class WalRecord:
    """One log record: an update's redo image or a checkpoint marker."""

    lsn: int
    kind: WalRecordKind
    page: int | None = None
    payload: object | None = None


#: What a log page's checksum covers, per record.  ``_value_`` is the
#: attribute behind ``Enum.value``: the same string without the Python-level
#: descriptor, so the whole projection runs in C.
_checksum_fields = attrgetter("lsn", "kind._value_", "page", "payload")


def _records_checksum(records: tuple[WalRecord, ...]) -> int:
    """Checksum over a record group's full redo content."""
    return zlib.crc32(repr(tuple(map(_checksum_fields, records))).encode())


@dataclass(frozen=True)
class WalPageImage:
    """What one flushed WAL page physically stores.

    ``checksum`` always covers the *intended* group of ``intended_count``
    records.  A clean flush stores all of them; a flush torn by power loss
    stores only a prefix, so verification recomputes a different checksum
    and the page — and with it every record of the group — is excluded
    from redo.  This is the page-level atomicity unit real WALs get from
    per-page CRCs.
    """

    records: tuple[WalRecord, ...]
    intended_count: int
    checksum: int

    @property
    def is_valid(self) -> bool:
        return (
            len(self.records) == self.intended_count
            and _records_checksum(self.records) == self.checksum
        )


class WriteAheadLog:
    """A sequential, group-committed log of page updates."""

    def __init__(
        self,
        clock: VirtualClock,
        profile: DeviceProfile = WAL_DEVICE_PROFILE,
        records_per_page: int = 32,
    ) -> None:
        if records_per_page < 1:
            raise ValueError("records_per_page must be positive")
        self.device = SimulatedSSD(profile, num_pages=_WAL_PAGES, clock=clock)
        self.records_per_page = records_per_page
        self._records: list[WalRecord] = []
        self._pending_records = 0
        self._next_page = 0
        self.pages_written = 0
        self.checkpoints = 0
        #: Flushes that tore mid-page under a crash schedule.
        self.torn_flushes = 0
        #: LSN of the most recent durable checkpoint record (0 = none).
        self.last_checkpoint_lsn = 0
        # Durable records indexed flat and by LSN: ``records_since`` is a
        # bisect + slice, so the crash-point engine's repeated recoveries
        # stay linear in the redo window instead of rescanning the log.
        self._durable_records: list[WalRecord] = []
        self._durable_lsns: list[int] = []
        #: Crash-schedule hook consulted on every buffer flush.  Called
        #: with the record group about to be written; returning ``None``
        #: lands the page atomically, returning ``j`` (0 <= j < len)
        #: simulates power loss mid-page — a torn image holding only the
        #: first ``j`` records is written and :class:`PowerFailure` raised.
        self.flush_hook: Callable[[tuple[WalRecord, ...]], int | None] | None = None
        # Device-scan verification cache: log pages verified so far.
        self._verified_pages = 0

    @property
    def lsn(self) -> int:
        """Log sequence number: total records appended so far."""
        return len(self._records)

    @property
    def records_logged(self) -> int:
        return len(self._records)

    @property
    def durable_lsn(self) -> int:
        """All records with lsn <= durable_lsn survive a crash."""
        return self._durable_lsns[-1] if self._durable_lsns else 0

    def log_update(self, page: int, payload: object | None = None) -> int:
        """Append an update record for ``page``; returns the record's LSN.

        A sequential page write is issued whenever the WAL buffer fills.
        """
        record = WalRecord(
            lsn=self.lsn + 1, kind=WalRecordKind.UPDATE,
            page=page, payload=payload,
        )
        self._records.append(record)
        self._pending_records += 1
        if self._pending_records >= self.records_per_page:
            self._flush_buffer()
        return record.lsn

    def append_batch(self, pages: list[int], payloads: list[object]) -> int:
        """Append one update record per ``(page, payload)`` pair, in order;
        returns the last LSN.

        The log it leaves is physically the one ``log_update`` leaves pair
        by pair: same LSNs, a sequential page write (and one ``flush_hook``
        consultation) each time the buffer fills, and after a torn flush
        nothing past the torn page has been appended.
        """
        records = self._records
        per_page = self.records_per_page
        kinds = repeat(WalRecordKind.UPDATE)
        start, total = 0, len(pages)
        while start < total:
            stop = min(start + per_page - self._pending_records, total)
            records.extend(map(
                WalRecord, count(len(records) + 1), kinds,
                pages[start:stop], payloads[start:stop],
            ))
            self._pending_records += stop - start
            if self._pending_records >= per_page:
                self._flush_buffer()
            start = stop
        return len(records)

    def flush(self) -> None:
        """Force any buffered records to the log device (commit barrier)."""
        if self._pending_records > 0:
            self._flush_buffer()

    def checkpoint_record(self) -> int:
        """Write a checkpoint record and flush the buffer.

        The caller (checkpointer / ``flush_all``) must have flushed every
        dirty page *before* logging the checkpoint, so that recovery can
        start redo from here.  The checkpoint only takes effect once its
        record is durable: a flush torn mid-page never advances
        ``last_checkpoint_lsn``.
        """
        record = WalRecord(lsn=self.lsn + 1, kind=WalRecordKind.CHECKPOINT)
        self._records.append(record)
        self._pending_records += 1
        self._flush_buffer()
        self.checkpoints += 1
        self.last_checkpoint_lsn = record.lsn
        return record.lsn

    def durable_records(self) -> list[WalRecord]:
        """Records that survive a crash (flushed to the log device)."""
        return list(self._durable_records)

    def records_since(self, lsn: int) -> list[WalRecord]:
        """Durable records with LSN strictly greater than ``lsn``."""
        if lsn < 0:
            raise ValueError(f"lsn cannot be negative: {lsn}")
        start = bisect_right(self._durable_lsns, lsn)
        return self._durable_records[start:]

    def verify_durable_records(self) -> list[WalRecord]:
        """Durable records revalidated against the log device's images.

        Recovery must not trust in-memory bookkeeping — after a crash only
        the device survives.  This scans the physical log pages, validates
        each :class:`WalPageImage` checksum, and stops at the first invalid
        (torn) page: everything after a tear is unreachable, exactly as a
        sequential-scan redo pass would see it.  The scan is cached per
        flushed page, so repeated recoveries (the crash-point engine's
        crash-during-recovery replays) verify each page once.

        Raises ``RuntimeError`` if the physical log diverges from the
        in-memory durable index — that would mean the WAL itself lost
        acknowledged writes, which the simulator does not model.
        """
        if self._verified_pages == self.pages_written:
            return list(self._durable_records)
        scanned: list[WalRecord] = []
        for page_no in range(self.pages_written):
            image = self.device.peek(page_no % _WAL_PAGES)
            if not isinstance(image, WalPageImage) or not image.is_valid:
                break  # torn tail: the log ends here
            scanned.extend(image.records)
        if [r.lsn for r in scanned] != self._durable_lsns:
            raise RuntimeError(
                "WAL device scan diverges from the durable index: "
                f"{len(scanned)} records on device vs "
                f"{len(self._durable_lsns)} indexed"
            )
        self._verified_pages = self.pages_written
        return list(self._durable_records)

    def _flush_buffer(self) -> None:
        pending = tuple(self._records[len(self._records) - self._pending_records:])
        tear: int | None = None
        hook = self.flush_hook
        if hook is not None:
            tear = hook(pending)
            if tear is not None and not 0 <= tear < len(pending):
                tear = None  # landing the full group is not a tear
        checksum = _records_checksum(pending)
        stored = pending if tear is None else pending[:tear]
        image = WalPageImage(
            records=stored, intended_count=len(pending), checksum=checksum,
        )
        page_no = self._next_page % _WAL_PAGES
        self.device.write_page(page_no, payload=image)
        self._next_page += 1
        self.pages_written += 1
        self._pending_records = 0
        if tear is not None:
            # Power fails mid-flush: none of the group's records become
            # durable (the torn image will not verify), and the machine
            # stops here.
            self.torn_flushes += 1
            site = (
                "wal-checkpoint"
                if any(r.kind is WalRecordKind.CHECKPOINT for r in pending)
                else "wal-flush"
            )
            raise PowerFailure(
                site, self.pages_written - 1,
                f"flush torn after {tear}/{len(pending)} records",
            )
        self._durable_records.extend(pending)
        self._durable_lsns.extend(record.lsn for record in pending)
