"""Crash simulation and redo recovery from the write-ahead log.

Both the classic manager and ACE delay data-page writes (the background
writer, the checkpointer, and ACE's batched write-back all assume a page
can sit dirty in memory long after its update committed).  What makes that
safe is WAL-before-data plus redo recovery, which this module implements
for the simulator:

* :func:`simulate_crash` — power loss: every buffered page (dirty or
  clean) vanishes; only the device contents and the *durable* prefix of
  the WAL survive.
* :func:`recover` — ARIES-style redo pass: scan durable records from the
  last durable checkpoint and reapply each update's redo image to the
  device.  Updates whose records never reached the log device (no commit
  flush) are lost, exactly as in a real system.

Together with the executor's commit-time ``wal.flush()``, this closes the
durability loop the paper's setup relies on ("WAL is enabled and the WAL
file is written in a separate device following common practice").
"""

from __future__ import annotations

from collections import _count_elements
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import compress, repeat

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.errors import IOFaultError, RetriesExhaustedError
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.storage.device import SimulatedSSD

__all__ = [
    "CrashImage",
    "RecoveryReport",
    "DurabilityAudit",
    "simulate_crash",
    "recover",
    "audit_committed",
    "write_ledger",
]


@dataclass(frozen=True)
class CrashImage:
    """What survives a crash: the data device and the write-ahead log."""

    device: SimulatedSSD
    wal: WriteAheadLog
    #: Pages that were dirty in memory when the power failed (diagnostics:
    #: these are exactly the pages redo must reconstruct).
    lost_dirty_pages: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a redo pass."""

    start_lsn: int
    records_scanned: int
    redo_applied: int
    redo_skipped: int
    #: Device retries spent while reapplying redo images (fault injection).
    redo_retries: int = 0


def simulate_crash(manager: BufferPoolManager) -> CrashImage:
    """Tear down a running manager as a power failure would.

    The bufferpool's memory (frames, descriptors, policy state, dirty
    pages) is discarded without any write-back; the device and the WAL's
    durable prefix are all that remain.  The manager must not be used
    afterwards.
    """
    if manager.wal is None:
        raise ValueError(
            "crash simulation needs a WAL-attached manager; without a log "
            "there is nothing to recover from"
        )
    lost_dirty = tuple(sorted(manager.dirty_pages()))
    # Wipe the in-memory state to make accidental reuse fail loudly.
    for descriptor in manager.pool.descriptors:
        descriptor.reset()
    manager.table = None  # type: ignore[assignment]
    manager.policy = None  # type: ignore[assignment]
    # The request paths run on bound aliases of the table/policy internals
    # (the inlined loop on the ``_turbo`` tuple, whose policy hooks may be
    # the policy's containers' own methods), so wiping the objects above is
    # not enough — clear the aliases too, or a "dead" manager would keep
    # serving hits.
    manager._slots = None
    manager._frame_of = None
    manager._turbo = None
    manager._policy_on_access = None  # type: ignore[assignment]
    manager._policy_insert = None  # type: ignore[assignment]
    manager._policy_remove = None  # type: ignore[assignment]
    manager._mark_dirty = None  # type: ignore[assignment]
    manager._mark_clean = None  # type: ignore[assignment]
    return CrashImage(
        device=manager.device,
        wal=manager.wal,
        lost_dirty_pages=lost_dirty,
    )


def recover(
    image: CrashImage, retry: RetryPolicy | None = None
) -> RecoveryReport:
    """Redo committed work onto the crashed device.

    Starts from the last durable checkpoint (all earlier updates are
    already on the device by the checkpoint contract) and reapplies every
    durable update record's redo image.  Records that carry no payload
    (pure dirtying without a logged image) are skipped and counted.

    Redo writes run under ``retry`` (default
    :data:`~repro.faults.retry.DEFAULT_RETRY_POLICY`) when the crashed device
    still injects faults: recovery is precisely when giving up on a
    transient error would turn a committed update into lost data, so a
    redo write that stays unwritable after retries raises rather than
    finishing an incomplete recovery silently.
    """
    if retry is None:
        retry = DEFAULT_RETRY_POLICY
    wal = image.wal
    # Recovery trusts only what physically survived: revalidate the log's
    # page images (each read once, however often recovery runs) so a flush
    # torn by the crash is excluded from redo rather than half-replayed.
    durable_lsn = wal.verify_durable()
    start_lsn = min(wal.last_checkpoint_lsn, durable_lsn)
    # Past the last durable checkpoint every record is an update, so what
    # carries no redo image is a skipped update.
    pages, payloads = wal.redo_since(start_lsn)
    scanned = durable_lsn - start_lsn
    # Later records overwrite earlier ones: one device write per page.
    redo_batch = dict(zip(pages, payloads))
    device = image.device
    clock = device.clock
    redo_retries = 0
    for page, payload in redo_batch.items():
        attempt = 1
        while True:
            try:
                device.write_page(page, payload=payload)
                break
            except IOFaultError as fault:
                if not retry.should_retry(fault, attempt):
                    if fault.permanent:
                        raise
                    raise RetriesExhaustedError(
                        "write",
                        (page,),
                        attempt,
                        f"recovery could not redo page {page}",
                        last_fault=fault,
                    ) from fault
                clock.advance(retry.backoff_for(attempt))
                redo_retries += 1
                attempt += 1
    return RecoveryReport(
        start_lsn=start_lsn,
        records_scanned=scanned,
        redo_applied=len(pages),
        redo_skipped=scanned - len(pages),
        redo_retries=redo_retries,
    )


@dataclass(frozen=True)
class DurabilityAudit:
    """Outcome of comparing a recovered device against a committed ledger.

    ``lost`` holds ``(page, committed_version, durable_version)`` for every
    page whose recovered payload is *behind* its committed version — each
    one is a committed update the system lost, the single unforgivable
    failure.  ``phantoms`` (exact mode only) holds ``(page,
    expected_version, durable_version)`` for pages *ahead of or diverging
    from* the ledger — redo that replayed work the durable log never
    committed.
    """

    committed_updates: int
    lost: tuple[tuple[int, int, int], ...] = ()
    phantoms: tuple[tuple[int, int, int], ...] = ()

    @property
    def lost_updates(self) -> int:
        return len(self.lost)

    @property
    def phantom_pages(self) -> int:
        return len(self.phantoms)

    @property
    def ok(self) -> bool:
        return not self.lost and not self.phantoms


def write_ledger(pages: Iterable[int], writes: Iterable[bool]) -> dict[int, int]:
    """Each written page's write count, pages in first-write order.

    The ledger a harness audits a fully committed run against.  Counted in
    C: ``Counter(iterable)`` would first ask ``isinstance(iterable,
    Mapping)``, whose first call in a process runs Python code.
    """
    ledger: dict[int, int] = {}
    _count_elements(ledger, compress(pages, writes))
    return ledger


def _durable_version(device: SimulatedSSD, page: int) -> int:
    """A page's recovered version counter (non-counter payloads are 0)."""
    payload = device.peek(page)
    return payload if isinstance(payload, int) else 0


def _audits_clean(
    device: SimulatedSSD, ledger: Mapping[int, int], unledgered: bool
) -> bool:
    """Whether the per-page audit would find nothing, decided in C from one
    read of the whole device.

    True only if every ledgered page holds exactly its version as an
    ``int`` and, when ``unledgered`` pages are audited, no other page holds
    a truthy payload (a falsy one has durable version 0).  False means
    *maybe* dirty: the caller runs the per-page audit, which names pages.
    """
    stored = device.snapshot_payloads()
    durable = list(map(stored.get, ledger))
    if not (
        all(map(isinstance, durable, repeat(int)))  # a float 3.0 is version 0
        and durable == list(ledger.values())
    ):
        return False
    # Every truthy payload on the device is then a ledgered one.
    ledgered = len(durable) - durable.count(0)
    return not unledgered or sum(map(bool, stored.values())) == ledgered


def audit_committed(
    image: CrashImage,
    report: RecoveryReport | None,
    ledger: Mapping[int, int],
    exact: bool = False,
    pages: Iterable[int] | None = None,
) -> DurabilityAudit:
    """Audit a recovered crash image against a committed-version ledger.

    ``ledger`` maps page -> committed version (payloads are monotone
    version counters, so a page's durable version below its ledger entry
    means a committed update was lost).  ``report`` is accepted for
    symmetry with the recover call-site and future extensions; the audit
    itself reads only the recovered device.

    Two strictnesses, matching the two harnesses that share this helper:

    * ``exact=False`` (the chaos harness): the ledger is a *lower bound* —
      versions at the last commit point.  The device may legitimately be
      ahead (later write-backs made more recent durable work visible), so
      only ``durable < committed`` counts as a failure.
    * ``exact=True`` (the crash-point engine): the ledger is the complete
      durable truth — the version each page must have after redo.  Every
      audited page must match *exactly*; a page ahead of or diverging from
      the ledger is a phantom redo.  ``pages`` extends the audit beyond
      the ledger's keys (e.g. ``range(num_pages)``) so unledgered pages
      are proven untouched too.

    Either way the device is read whole.  A clean verdict — the common
    one — is decided in bulk (:func:`_audits_clean`); anything else takes
    the per-page loop, which names every lost and phantom page in ledger
    order, then ``pages`` order.
    """
    del report  # the audit is a pure function of device state vs ledger
    device = image.device
    committed = sum(ledger.values())
    if _audits_clean(device, ledger, exact and pages is not None):
        return DurabilityAudit(committed_updates=committed)
    lost: list[tuple[int, int, int]] = []
    phantoms: list[tuple[int, int, int]] = []
    audited = set(ledger)
    for page, version in ledger.items():
        durable = _durable_version(device, page)
        if durable < version:
            lost.append((page, version, durable))
        elif exact and durable != version:
            phantoms.append((page, version, durable))
    if exact and pages is not None:
        for page in pages:
            if page in audited:
                continue
            durable = _durable_version(device, page)
            if durable != 0:
                phantoms.append((page, 0, durable))
    return DurabilityAudit(
        committed_updates=committed,
        lost=tuple(lost),
        phantoms=tuple(phantoms),
    )
