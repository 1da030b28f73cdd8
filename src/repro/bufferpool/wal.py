"""Write-ahead log on a separate device, as in the paper's setup.

Page updates are logged sequentially before the dirty page can be evicted;
the paper's evaluation keeps the WAL on a separate device "following common
practice", so WAL traffic never competes with bufferpool I/O and is
identical for baseline and ACE runs.  The simulator models group commit:
records accumulate in a WAL buffer and one sequential page write is issued
per ``records_per_page`` records (or on an explicit flush/checkpoint).

Records carry redo images (a page's new payload) for
:mod:`repro.bufferpool.recovery`.  The log is columns — ``kinds`` / ``pages``
/ ``payloads``, LSN = index + 1 — with a count, ``durable_lsn``, for its
durable prefix (a torn flush stops the machine, so the prefix is
contiguous); a :class:`WalRecord` is a view built for consumers only.

Every flushed log page is a :class:`WalPageImage` carrying a checksum over
the *intended* record group, so a flush torn by power loss mid-page leaves
a detectably partial image: the stored prefix no longer matches the
checksum, and recovery excludes the whole torn page from redo instead of
replaying half a group commit.  The crash-point engine drives this through
:attr:`WriteAheadLog.flush_hook`.

A flush is observable only through the shared clock until someone reads the
log device, so the executor's inlined loop defers its own: one
:meth:`WriteAheadLog.append_deferred` call appends a stretch's records with
a flush at each of its cuts, charges the log pages they fill or flush to
the clock and advances ``durable_lsn`` past them, and the stretch end builds
and stores every deferred page as columns (:meth:`WriteAheadLog.write_out`).
Any other flush writes its page at once, after the deferred ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, compress, count, repeat
from marshal import dumps
from operator import add, floordiv, is_, mod, sub
from typing import NamedTuple, NoReturn
from zlib import crc32

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
#: Log pages one ``verify_durable`` window reads and checks as columns:
#: bounded, so a long log never holds every image's columns at once.
_SCAN_WINDOW = 256


class WalRecordKind(Enum):
    """Types of log records."""

    UPDATE = "update"
    CHECKPOINT = "checkpoint"


_UPDATE, _CHECKPOINT = WalRecordKind.UPDATE, WalRecordKind.CHECKPOINT


@dataclass(frozen=True)
class WalRecord:
    """One log record: an update's redo image or a checkpoint marker.

    ``payload`` is the redo image, a value ``marshal`` encodes; what
    reaches the log from the stack is an ``int`` page version, or ``None``
    (a checkpoint marker, or an update without image).  The page checksum
    covers it by value, so a payload ``marshal`` refuses (``object()``,
    say) makes the flush of its page raise ``ValueError`` and leaves the
    log as it was.
    """

    lsn: int
    kind: WalRecordKind
    page: int | None = None
    payload: object | None = None


def _records_checksum(first_lsn: int, kinds, pages, payloads) -> int:
    """CRC of a group's values: ``marshal`` version 0 of ``(first_lsn, kind
    flags, pages, payloads)``, with one flag byte per record (1 for a
    checkpoint) and ``pages`` / ``payloads`` the tuples its image stores.

    Version 0 writes values only: later versions share an object written
    twice by identity and mark interned strings, so equal groups could
    encode apart.  Types stay apart: ``None``, ``0``, ``False``, ``1``,
    ``True`` and ``1.0`` encode differently."""
    return crc32(dumps(
        (first_lsn, bytes(map(is_, kinds, repeat(_CHECKPOINT))), pages, payloads), 0
    ))


def _checksum_column(firsts, kinds, pages, payloads) -> tuple[int, ...]:
    """:func:`_records_checksum` of each group of a column of groups, in C.

    Collected in a list first: ``tuple`` over an iterator of unknown length
    allocates ten slots and resizes, which leaves the freed tuple on the
    free list of its final size — a per-call drift that holds memory when
    the columns are short (a write-out's few groups)."""
    return tuple(list(map(crc32, map(dumps, zip(
        firsts, map(bytes, map(map, repeat(is_), kinds, repeat(repeat(_CHECKPOINT)))),
        pages, payloads,
    ), repeat(0)))))


class WalPageImage(NamedTuple):
    """What one flushed WAL page physically stores: a group, as columns.

    ``checksum`` always covers the *intended* group of ``intended_count``
    records.  A flush torn by power loss stores only a prefix, so
    verification recomputes a different checksum and the page — every
    record of the group — is excluded from redo: the page-level atomicity
    unit real WALs get from per-page CRCs.  A named tuple, not a frozen
    dataclass: one is built per log-page flush, and building a tuple skips
    the six ``object.__setattr__`` calls of a frozen ``__init__``.
    """

    first_lsn: int
    kinds: tuple[WalRecordKind, ...]
    pages: tuple[int | None, ...]
    payloads: tuple[object, ...]
    intended_count: int
    checksum: int

    @property
    def records(self) -> tuple[WalRecord, ...]:
        return tuple(map(
            WalRecord, count(self.first_lsn), self.kinds, self.pages, self.payloads
        ))

    @property
    def is_valid(self) -> bool:
        return len(self.kinds) == self.intended_count and self.checksum == (
            _records_checksum(self.first_lsn, self.kinds, self.pages, self.payloads)
        )


def _unequal(pages, payloads) -> ValueError:
    return ValueError(
        f"{len(pages)} pages but {len(payloads)} payloads: one of each per record"
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
        # The log's columns, one entry per record (LSN = index + 1).
        self._kinds, self._pages, self._payloads = [], [], []
        self._pending_records = 0
        self.pages_written = 0
        self.checkpoints = 0
        #: Flushes that tore mid-page under a crash schedule.
        self.torn_flushes = 0
        #: LSN of the most recent durable checkpoint record (0 = none).
        self.last_checkpoint_lsn = 0
        #: All records with lsn <= durable_lsn survive a crash.
        self.durable_lsn = 0
        #: Crash-schedule hook consulted on every buffer flush.  Called
        #: with the record group about to be written; returning ``None``
        #: lands the page atomically, returning ``j`` (0 <= j < len)
        #: simulates power loss mid-page — a torn image holding only the
        #: first ``j`` records is written and :class:`PowerFailure` raised.
        self.flush_hook: Callable[[tuple[WalRecord, ...]], int | None] | None = None
        #: Sizes of the deferred flushes' groups, in log order: timed and
        #: durable, their page images not stored until :meth:`write_out`.
        self.unwritten: list[int] = []
        # What one log-page write adds to the shared clock.
        self._clock, self._page_ticks = clock, self.device._single_write_ticks
        # Device-scan cache: log pages (and their records) verified so far.
        self._verified_pages = self._verified_lsn = 0

    @property
    def lsn(self) -> int:
        """Log sequence number: total records appended so far."""
        return len(self._kinds)

    @property
    def room(self) -> int:
        """How many more records fill the buffer (the last writes a page)."""
        return self.records_per_page - self._pending_records

    def log_update(self, page: int, payload: object | None = None) -> int:
        """Append an update record for ``page``; returns the record's LSN.

        A sequential page write is issued whenever the WAL buffer fills.
        """
        self._kinds.append(_UPDATE)
        self._pages.append(page)
        self._payloads.append(payload)
        self._pending_records += 1
        if self._pending_records >= self.records_per_page:
            self._flush_buffer()
        return len(self._kinds)

    def append_batch(self, pages: list[int], payloads: list[object]) -> int:
        """Append one update record per ``(page, payload)`` pair, in order;
        returns the last LSN.

        The log it leaves is physically the one ``log_update`` leaves pair
        by pair: same LSNs, a sequential page write (and one ``flush_hook``
        consultation) each time the buffer fills, and after a torn flush
        nothing past the torn page has been appended.  Columns of unequal
        length raise ``ValueError`` before anything is appended.
        """
        per_page = self.records_per_page
        start, total = 0, len(pages)
        if len(payloads) != total:
            raise _unequal(pages, payloads)
        if self._pending_records + total < per_page:  # no page fills
            self._kinds += repeat(_UPDATE, total)
            self._pages += pages
            self._payloads += payloads
            self._pending_records += total
            return len(self._kinds)
        while start < total:
            stop = min(start + per_page - self._pending_records, total)
            self._kinds += repeat(_UPDATE, stop - start)
            self._pages += pages[start:stop]
            self._payloads += payloads[start:stop]
            self._pending_records += stop - start
            if self._pending_records >= per_page:
                self._flush_buffer()
            start = stop
        return len(self._kinds)

    def append_deferred(
        self, pages: list[int], payloads: list[object], cuts: Sequence[int] = ()
    ) -> None:
        """:meth:`append_batch` with a :meth:`flush` after the first ``cut``
        records for each of the ascending ``cuts``, with every page this
        fills or flushes *deferred*: timed and durable at once — its write's
        ticks on the clock, ``durable_lsn`` past its records, its size in
        :attr:`unwritten` — with only its image left for :meth:`write_out`.

        The caller must call :meth:`write_out` before anyone reads the log
        device (the inlined loop does when its stretch ends), and must not
        defer on a log with a ``flush_hook``: a crash schedule observes each
        page as it lands.  A filled page holds ``records_per_page`` records,
        so the pages a segment fills are closed as a column; a flush closes
        what is buffered, if anything (a repeated cut, or one at 0 with
        nothing pending, closes nothing).  The records after the last cut
        stay buffered but for the pages they fill.
        """
        total = len(pages)
        if len(payloads) != total:
            raise _unequal(pages, payloads)
        self._kinds += repeat(_UPDATE, total)
        self._pages += pages
        self._payloads += payloads
        buffered = self._pending_records + total
        per_page = self.records_per_page
        if cuts:
            # Each cut closes the segment before it (the buffered records
            # ride on the first): its full pages, then the rest, if any.
            segments = list(map(sub, cuts, [0, *cuts]))
            segments[0] += self._pending_records
            full = map(floordiv, segments, repeat(per_page))
            rest = map(mod, segments, repeat(per_page))
            groups = list(filter(None, chain.from_iterable(map(
                chain, map(repeat, repeat(per_page), full), zip(rest)
            ))))
            self._clock.ticks += len(groups) * self._page_ticks
            self.unwritten += groups
            self.durable_lsn += self._pending_records + cuts[-1]
            buffered = total - cuts[-1]
        if buffered >= per_page:  # whole pages fill
            filled = buffered // per_page
            self._clock.ticks += filled * self._page_ticks
            self.unwritten += repeat(per_page, filled)
            self.durable_lsn += filled * per_page
            buffered -= filled * per_page
        self._pending_records = buffered

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
        self._kinds.append(_CHECKPOINT)
        self._pages.append(None)
        self._payloads.append(None)
        self._pending_records += 1
        self._flush_buffer()
        self.checkpoints += 1
        self.last_checkpoint_lsn = len(self._kinds)
        return self.last_checkpoint_lsn

    def durable_records(self) -> list[WalRecord]:
        """Records that survive a crash (flushed to the log device)."""
        return self.records_since(0)

    def records_since(self, lsn: int) -> list[WalRecord]:
        """Durable records with LSN strictly greater than ``lsn``."""
        if lsn < 0:
            raise ValueError(f"lsn cannot be negative: {lsn}")
        start, end = min(lsn, self.durable_lsn), self.durable_lsn
        return list(map(WalRecord, count(start + 1), self._kinds[start:end],
                        self._pages[start:end], self._payloads[start:end]))

    def redo_since(self, lsn: int) -> tuple[list, list]:
        """``(pages, payloads)`` of the durable records past ``lsn`` that carry
        a redo image, in log order: what redo and a replica shipment read."""
        if lsn < 0:
            raise ValueError(f"lsn cannot be negative: {lsn}")
        end = self.durable_lsn
        pages, payloads = self._pages[lsn:end], self._payloads[lsn:end]
        if None in payloads:  # a checkpoint marker, an update without image
            keep = [payload is not None for payload in payloads]
            return list(compress(pages, keep)), list(compress(payloads, keep))
        return pages, payloads

    def verify_durable(self) -> int:
        """Revalidate the durable prefix against the log device; returns it.

        Recovery must not trust in-memory bookkeeping — after a crash only
        the device survives.  This scans the physical log pages, validates
        each :class:`WalPageImage` checksum, and stops at the first invalid
        (torn) page: everything after a tear is unreachable, exactly as a
        sequential-scan redo pass would see it.  Each scan resumes where the
        last stopped, so repeated recoveries verify each page once.  A device
        that diverges from the durable prefix (the WAL lost acknowledged
        writes, which the simulator does not model) raises ``RuntimeError``.

        The scan reads :data:`_SCAN_WINDOW` pages per ``peek_many`` and
        checks a window as columns, in C: every payload an image, first
        LSNs contiguous, every group whole, every checksum equal to the
        recomputed one.  Only a window that fails is walked page by page —
        the images already read — to find where the log ends.
        """
        page_no, verified = self._verified_pages, self._verified_lsn
        written, peek_many = self.pages_written, self.device.peek_many
        while page_no < written:
            stop = min(page_no + _SCAN_WINDOW, written)
            images = peek_many(map(mod, range(page_no, stop), repeat(_WAL_PAGES)))
            if all(map(isinstance, images, repeat(WalPageImage))):
                firsts, kinds, pages, payloads, counts, checksums = zip(*images)
                starts = tuple(accumulate(counts, initial=verified + 1))
                if firsts == starts[:-1] and tuple(map(len, kinds)) == counts and (
                    checksums == _checksum_column(firsts, kinds, pages, payloads)
                ):
                    page_no, verified = stop, starts[-1] - 1
                    continue
            for image in images:  # the window holds the tear: find it
                if not (isinstance(image, WalPageImage) and image.is_valid
                        and image.first_lsn == verified + 1):
                    break  # torn tail: the log ends here
                verified += image.intended_count
                page_no += 1
            break
        if verified != self.durable_lsn:
            raise RuntimeError(
                "WAL device scan diverges from the durable index: "
                f"{verified} records on device vs {self.durable_lsn} indexed"
            )
        self._verified_pages, self._verified_lsn = page_no, verified
        return verified

    def verify_durable_records(self) -> list[WalRecord]:
        """Durable records, revalidated by :meth:`verify_durable`."""
        self.verify_durable()
        return self.durable_records()

    def _flush_buffer(self) -> None:
        """Write the buffered records as one log page, after any deferred
        pages (:meth:`write_out`): the page write charges the clock and the
        group becomes durable.  A ``flush_hook`` sees the group first and
        may tear it."""
        if self.unwritten:
            self.write_out()  # the log's earlier pages land first
        intended = self._pending_records
        start = len(self._kinds) - intended
        kinds, pages = tuple(self._kinds[start:]), tuple(self._pages[start:])
        payloads = tuple(self._payloads[start:])
        checksum = _records_checksum(start + 1, kinds, pages, payloads)
        if self.flush_hook is not None:
            tear = self.flush_hook(
                tuple(map(WalRecord, count(start + 1), kinds, pages, payloads))
            )
            if tear is not None and 0 <= tear < intended:  # all of it is no tear
                self._torn_flush(start + 1, kinds, pages, payloads, tear, checksum)
        # ``tuple.__new__`` builds the named tuple without its Python ``__new__``.
        self.device.write_page(self.pages_written % _WAL_PAGES, tuple.__new__(
            WalPageImage, (start + 1, kinds, pages, payloads, intended, checksum)
        ))
        self.pages_written += 1
        self._pending_records = 0
        self.durable_lsn += intended

    def write_out(self) -> None:
        """Build and store the page images of the groups in :attr:`unwritten`,
        in log order, as columns.

        The groups sit right before the buffered records.  Their record
        columns, first LSNs and checksums (:func:`_checksum_column`) are
        built in C, and the images land through one
        ``SimulatedSSD.store_writes`` call, which keeps ``write_page``'s
        checks and adds its counters in bulk: the log and its device end
        as a ``write_page`` per flush leaves them.  The columns are lists,
        not tuples, for the reason :func:`_checksum_column` gives.  The
        checksums come first: a payload they cannot encode raises before
        :attr:`unwritten` or ``pages_written`` changes.
        """
        groups = self.unwritten
        bounds = list(accumulate(
            groups, initial=len(self._kinds) - self._pending_records - sum(groups)
        ))
        spans = list(map(slice, bounds, bounds[1:]))
        firsts = list(map(add, bounds[:-1], repeat(1)))
        kinds = list(map(tuple, map(self._kinds.__getitem__, spans)))
        pages = list(map(tuple, map(self._pages.__getitem__, spans)))
        payloads = list(map(tuple, map(self._payloads.__getitem__, spans)))
        checksums = _checksum_column(firsts, kinds, pages, payloads)
        self.unwritten = []
        written = self.pages_written
        self.pages_written = written + len(groups)
        # ``tuple.__new__`` builds the named tuples without their Python ``__new__``.
        self.device.store_writes(
            list(map(mod, range(written, self.pages_written), repeat(_WAL_PAGES))),
            list(map(tuple.__new__, repeat(WalPageImage), zip(
                firsts, kinds, pages, payloads, groups, checksums
            ))),
        )

    def _torn_flush(
        self, first_lsn: int, kinds: tuple, pages: tuple, payloads: tuple,
        tear: int, checksum: int,
    ) -> NoReturn:
        """Power fails mid-flush: a torn image holding the group's first
        ``tear`` records lands, none of the group's records become durable
        (the torn image will not verify), and the machine stops here."""
        intended = len(kinds)
        site = "wal-checkpoint" if _CHECKPOINT in kinds else "wal-flush"
        image = WalPageImage(
            first_lsn, kinds[:tear], pages[:tear], payloads[:tear], intended, checksum
        )
        self.device.write_page(self.pages_written % _WAL_PAGES, payload=image)
        self.pages_written += 1
        self._pending_records = 0
        self.torn_flushes += 1
        raise PowerFailure(
            site, self.pages_written - 1,
            f"flush torn after {tear}/{intended} records",
        )
