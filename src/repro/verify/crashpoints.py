"""Systematic crash-point enumeration: durability as a proof, not a sample.

The chaos harness crashes each stack *once*, at one instant.  This engine
instead enumerates **every write boundary** a run crosses — each data-device
write batch (foreground write-back, background writer, checkpointer flush,
ACE's ``n_w``-page batches), each WAL buffer flush, and each checkpoint
record — and for every one of them replays the run from scratch, fails the
power exactly there, recovers from the WAL, and audits the recovered device
against an independently derived committed-version ledger.  Three kinds of
crash are tested per boundary where they differ:

* **before** — the boundary's write never happens (``tear=0``);
* **torn** — a proper prefix of a multi-page batch (or of a WAL page's
  record group) lands before the power fails (``tear=k``);
* **during recovery** — after a successful crash+recover cycle begins, the
  power fails again at *every* redo write, and recovery is re-run to prove
  the redo pass is idempotent.

The audit is exact in both directions: a committed update missing from the
recovered device is a **lost update**, and a page whose payload differs
from the ledger at all — including pages *ahead* of it — is a **phantom
redo**.  Everything is virtual-time deterministic: the same seed enumerates
the same boundaries and reproduces the same verdicts.

How the ledger avoids circularity: the set of durable WAL records is taken
from a physical scan of the log device with per-page checksum validation
(:meth:`~repro.bufferpool.wal.WriteAheadLog.verify_durable_records`), and
the ledger is rebuilt by *counting* those update records per page — client
writes bump each page's version counter by exactly one, so the n-th durable
update of a page must carry payload ``n``.  The engine cross-checks that
invariant record by record; redo then has to reproduce those counts on the
device, nothing more and nothing less.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import (
    audit_committed,
    recover,
    simulate_crash,
)
from repro.bufferpool.wal import WalRecord, WalRecordKind, WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.stack import build_manager
from repro.engine.executor import ExecutionOptions, run_trace
from repro.errors import PowerFailure
from repro.policies.registry import PAPER_POLICIES
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD, DeviceProfile
from repro.workloads.synthetic import MU, generate_trace

__all__ = [
    "CrashPoint",
    "CrashPointOutcome",
    "CrashConfigReport",
    "CrashPointReport",
    "CrashSchedule",
    "CrashHookDevice",
    "DEFAULT_VARIANTS",
    "run_crashpoint_config",
    "run_crashpoints",
    "smoke_report",
]

DEFAULT_VARIANTS = ("baseline", "ace", "ace+pf")

#: The synthetic crash point appended after the last real boundary: the
#: run completes, power fails at the very end.
END_OF_RUN = "end-of-run"


# --------------------------------------------------------------- schedule


class CrashSchedule:
    """The virtual crash clock shared by the data device and the WAL.

    Every write boundary — data-device batch or WAL page flush — calls
    :meth:`on_boundary` with its site label and size.  In ``record`` mode
    the schedule just enumerates; in ``armed`` mode it returns a tear index
    at exactly one boundary ordinal, which the caller translates into a
    torn prefix plus :class:`~repro.errors.PowerFailure`.
    """

    def __init__(self) -> None:
        self.mode = "record"
        #: Recorded boundaries: ``(site, size)`` in global order.
        self.boundaries: list[tuple[str, int]] = []
        self._counter = 0
        self._target: tuple[int, int] | None = None
        #: Set when the armed target fired: ``(ordinal, site)``.
        self.fired: tuple[int, str] | None = None
        #: When set, overrides every boundary's site label (the engine
        #: re-labels data writes issued *by recovery* as ``redo-write``).
        self.site_override: str | None = None

    @property
    def boundary_count(self) -> int:
        """Boundaries crossed since the last :meth:`reset`."""
        return self._counter

    def reset(
        self,
        mode: str,
        target: tuple[int, int] | None = None,
        site_override: str | None = None,
    ) -> None:
        if mode not in ("record", "armed"):
            raise ValueError(f"unknown schedule mode: {mode!r}")
        self.mode = mode
        self._counter = 0
        self._target = target
        self.fired = None
        self.site_override = site_override
        if mode == "record":
            self.boundaries = []

    def on_boundary(self, site: str, size: int) -> int | None:
        """Consult the schedule at one write boundary.

        Returns ``None`` to let the write proceed atomically, or a tear
        index ``k`` (``0 <= k < size``) meaning: land the first ``k``
        items, then the power fails.
        """
        if self.site_override is not None:
            site = self.site_override
        ordinal = self._counter
        self._counter += 1
        if self.mode == "record":
            self.boundaries.append((site, size))
            return None
        target = self._target
        if target is None or ordinal != target[0]:
            return None
        self.fired = (ordinal, site)
        return target[1]

    def wal_flush_hook(self, records: tuple[WalRecord, ...]) -> int | None:
        """Adapter for :attr:`WriteAheadLog.flush_hook`."""
        site = (
            "wal-checkpoint"
            if any(r.kind is WalRecordKind.CHECKPOINT for r in records)
            else "wal-flush"
        )
        return self.on_boundary(site, len(records))


class CrashHookDevice:
    """A crash-schedule tap in front of a :class:`SimulatedSSD`.

    Composes like :class:`~repro.faults.device.FaultyDevice`: the full
    device surface delegates unchanged, but every write batch first asks
    the schedule whether the power fails at this boundary.  A tear lands a
    proper prefix through the base device (charging its normal batch cost —
    the device was mid-flight when the lights went out) and raises
    :class:`PowerFailure`.  Not being a bare ``SimulatedSSD`` also keeps
    the stack off the executor's inlined loop: every request goes through
    ``manager.access`` and the miss routine's helpers, each an
    instrumentable call — exactly what a verification harness wants.
    """

    def __init__(self, base: SimulatedSSD, schedule: CrashSchedule) -> None:
        self.base = base
        self.schedule = schedule

    # ------------------------------------------------- delegated surface

    @property
    def profile(self):
        return self.base.profile

    @property
    def model(self):
        return self.base.model

    @property
    def clock(self) -> VirtualClock:
        return self.base.clock

    @property
    def num_pages(self) -> int | None:
        return self.base.num_pages

    @property
    def stats(self):
        return self.base.stats

    @property
    def ftl(self):
        return self.base.ftl

    @property
    def _payloads(self) -> dict[int, object]:
        return self.base._payloads

    @property
    def checksums_enabled(self) -> bool:
        return self.base.checksums_enabled

    def contains(self, page: int) -> bool:
        return self.base.contains(page)

    def peek(self, page: int) -> object | None:
        return self.base.peek(page)

    def verify_page(self, page: int) -> bool:
        return self.base.verify_page(page)

    def snapshot_payloads(self) -> dict[int, object]:
        return self.base.snapshot_payloads()

    def restore_payloads(self, snapshot: Mapping[int, object]) -> None:
        self.base.restore_payloads(snapshot)

    def format_pages(self, pages: Iterable[int]) -> None:
        self.base.format_pages(pages)

    def reset_stats(self) -> None:
        self.base.reset_stats()

    def read_page(self, page: int) -> object | None:
        return self.base.read_page(page)

    def read_batch(self, pages: list[int] | tuple[int, ...]) -> list[object | None]:
        return self.base.read_batch(pages)

    # ------------------------------------------------- hooked writes

    def write_page(self, page: int, payload: object | None = None) -> None:
        self.write_batch({page: payload})

    def write_batch(self, pages: Mapping[int, object] | Iterable[int]) -> None:
        base = self.base
        if isinstance(pages, Mapping):
            items = list(pages.items())
        else:
            items = [(page, base.peek(page)) for page in pages]
        if not items:
            return
        tear = self.schedule.on_boundary("data-write", len(items))
        if tear is None:
            base.write_batch(dict(items))
            return
        prefix = dict(items[:tear])
        if prefix:
            base.write_batch(prefix)
        ordinal, site = self.schedule.fired  # type: ignore[misc]
        raise PowerFailure(
            site, ordinal, f"{tear}/{len(items)} pages of the batch landed"
        )

    def __repr__(self) -> str:
        return f"CrashHookDevice(base={self.base!r})"


# ----------------------------------------------------------- result types


@dataclass(frozen=True)
class CrashPoint:
    """One enumerated crash: boundary ordinal, site, and torn prefix size."""

    ordinal: int
    site: str
    #: Items of the boundary's write that land before the power fails
    #: (0 = the write never happens).
    tear: int

    @property
    def label(self) -> str:
        suffix = f"+{self.tear}" if self.tear else ""
        return f"#{self.ordinal}@{self.site}{suffix}"


@dataclass(frozen=True)
class CrashPointOutcome:
    """Verdict for one crash point, including its recovery re-crashes."""

    point: CrashPoint
    committed_updates: int
    lost_updates: int
    phantom_pages: int
    #: Device writes the primary redo pass issued.
    redo_writes: int
    #: Crash-during-recovery replays run (one per tested redo write), and
    #: how many of them recovered to the exact ledger on the second try.
    redo_crashes_tested: int
    redo_crashes_ok: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.lost_updates == 0
            and self.phantom_pages == 0
            and self.redo_crashes_ok == self.redo_crashes_tested
        )


@dataclass(frozen=True)
class CrashConfigReport:
    """All crash points of one (policy, variant) configuration."""

    policy: str
    variant: str
    seed: int
    boundaries: int
    points_enumerated: int
    points_skipped: int
    outcomes: tuple[CrashPointOutcome, ...]

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}"

    @property
    def points_tested(self) -> int:
        return len(self.outcomes)

    @property
    def redo_crashes_tested(self) -> int:
        return sum(o.redo_crashes_tested for o in self.outcomes)

    @property
    def failures(self) -> tuple[CrashPointOutcome, ...]:
        return tuple(o for o in self.outcomes if not o.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class CrashPointReport:
    """The whole sweep: one config report per (policy, variant) cell."""

    configs: tuple[CrashConfigReport, ...]
    seed: int

    @property
    def ok(self) -> bool:
        return all(config.ok for config in self.configs)

    @property
    def failures(self) -> tuple[CrashConfigReport, ...]:
        return tuple(config for config in self.configs if not config.ok)

    @property
    def points_tested(self) -> int:
        return sum(config.points_tested for config in self.configs)

    @property
    def redo_crashes_tested(self) -> int:
        return sum(config.redo_crashes_tested for config in self.configs)


# --------------------------------------------------------------- the engine


def _build_stack(
    policy_name: str,
    variant: str,
    num_pages: int,
    profile: DeviceProfile,
    schedule: CrashSchedule,
) -> BufferPoolManager:
    """A WAL-attached stack over a crash-hooked device (fresh every run)."""
    clock = VirtualClock()
    base = SimulatedSSD(profile, num_pages=num_pages, clock=clock)
    base.format_pages(range(num_pages))
    device = CrashHookDevice(base, schedule)
    wal = WriteAheadLog(clock)
    wal.flush_hook = schedule.wal_flush_hook
    return build_manager(
        device, max(16, num_pages // 5), policy_name, variant, wal=wal
    )


def _ledger_from_records(
    records: list[WalRecord],
) -> tuple[dict[int, int], str | None]:
    """Rebuild the committed-version ledger from durable update records.

    Client writes bump a page's version counter by exactly one, so the
    n-th durable update of a page must carry redo payload ``n``; any
    divergence means the WAL content itself is wrong (not merely stale)
    and is reported as an error instead of silently trusted.
    """
    ledger: dict[int, int] = {}
    for record in records:
        if record.kind is not WalRecordKind.UPDATE or record.page is None:
            continue
        expected = ledger.get(record.page, 0) + 1
        ledger[record.page] = expected
        if record.payload != expected:
            return ledger, (
                f"WAL redo payload diverges from the write ledger: lsn "
                f"{record.lsn} page {record.page} carries {record.payload!r}"
                f", expected version {expected}"
            )
    return ledger, None


def _spread(count: int, limit: int) -> list[int]:
    """``limit`` indices spread evenly and deterministically over ``count``."""
    if count <= limit:
        return list(range(count))
    if limit == 1:
        return [0]
    step = (count - 1) / (limit - 1)
    picked = sorted({round(i * step) for i in range(limit)})
    return picked


def run_crashpoint_config(
    policy: str,
    variant: str,
    num_pages: int = 400,
    ops: int = 1_500,
    seed: int = 7,
    commit_every: int = 48,
    max_points: int | None = 64,
    max_redo_crashes: int | None = None,
    profile: DeviceProfile = PCIE_SSD,
) -> CrashConfigReport:
    """Enumerate and test every crash point of one (policy, variant) cell.

    Pass ``max_points``/``max_redo_crashes`` to bound the sweep: points are
    then subsampled evenly (deterministically) over the enumeration and the
    skipped count is reported — never silently dropped.  ``None`` removes
    the bound.
    """
    schedule = CrashSchedule()
    trace = generate_trace(MU, num_pages, ops, seed=seed)
    options = ExecutionOptions(
        cpu_us_per_op=2.0,
        bg_writer_interval_us=20_000.0,
        checkpoint_interval_us=100_000.0,
        commit_every_ops=commit_every,
    )

    def _drive(manager: BufferPoolManager) -> None:
        if isinstance(manager, ACEBufferPoolManager):
            batch_size = manager.config.n_w
        else:
            batch_size = 1
        bg_writer = BackgroundWriter(
            manager, pages_per_round=16, batch_size=batch_size
        )
        checkpointer = Checkpointer(
            manager,
            interval_us=options.checkpoint_interval_us,
            batch_size=batch_size,
        )
        run_trace(
            manager, trace, options=options,
            bg_writer=bg_writer, checkpointer=checkpointer,
            label=f"crashpoints/{policy}/{variant}",
        )

    # Pass 1 — record: run to completion, enumerating every boundary.
    schedule.reset("record")
    _drive(_build_stack(policy, variant, num_pages, profile, schedule))
    boundaries = list(schedule.boundaries)

    # Crash-point expansion: every boundary "before", plus a torn variant
    # for every multi-item write, plus the end-of-run image.
    points: list[CrashPoint] = []
    for ordinal, (site, size) in enumerate(boundaries):
        points.append(CrashPoint(ordinal, site, tear=0))
        if size > 1:
            points.append(CrashPoint(ordinal, site, tear=size // 2))
    points.append(CrashPoint(len(boundaries), END_OF_RUN, tear=0))

    enumerated = len(points)
    if max_points is not None and enumerated > max_points:
        picked = {i: points[i] for i in _spread(enumerated, max_points)}
        # Rare sites (a run may cross exactly one wal-checkpoint boundary)
        # must survive subsampling: force the first point of every site
        # the even spread missed.
        sampled_sites = {p.site for p in picked.values()}
        for index, point in enumerate(points):
            if point.site not in sampled_sites:
                picked[index] = point
                sampled_sites.add(point.site)
        points = [picked[i] for i in sorted(picked)]
    skipped = enumerated - len(points)

    outcomes = [
        _test_point(
            point, policy, variant, num_pages, profile, schedule,
            _drive, max_redo_crashes,
        )
        for point in points
    ]
    return CrashConfigReport(
        policy=policy,
        variant=variant,
        seed=seed,
        boundaries=len(boundaries),
        points_enumerated=enumerated,
        points_skipped=skipped,
        outcomes=tuple(outcomes),
    )


def _test_point(
    point: CrashPoint,
    policy: str,
    variant: str,
    num_pages: int,
    profile: DeviceProfile,
    schedule: CrashSchedule,
    drive,
    max_redo_crashes: int | None,
) -> CrashPointOutcome:
    """Pass 2 — armed: replay, crash at ``point``, recover, audit, re-crash."""

    def _failed(error: str, committed: int = 0) -> CrashPointOutcome:
        return CrashPointOutcome(
            point=point, committed_updates=committed, lost_updates=0,
            phantom_pages=0, redo_writes=0, redo_crashes_tested=0,
            redo_crashes_ok=0, error=error,
        )

    end_of_run = point.site == END_OF_RUN
    schedule.reset(
        "armed", None if end_of_run else (point.ordinal, point.tear)
    )
    manager = _build_stack(policy, variant, num_pages, profile, schedule)
    crashed = False
    try:
        drive(manager)
    except PowerFailure:
        crashed = True
    if crashed == end_of_run:
        # Determinism violation: the armed run must cross exactly the
        # boundaries the record run enumerated.
        return _failed(
            f"crash point {point.label} "
            + ("fired unexpectedly" if crashed else "was never reached")
        )
    if not end_of_run and schedule.fired[1] != point.site:  # type: ignore[index]
        return _failed(
            f"boundary {point.ordinal} is {schedule.fired[1]} in the armed "
            f"run but {point.site} in the record run"
        )

    image = simulate_crash(manager)
    try:
        records = image.wal.verify_durable_records()
    except RuntimeError as exc:
        return _failed(str(exc))
    ledger, ledger_error = _ledger_from_records(records)
    committed = sum(ledger.values())
    if ledger_error is not None:
        return _failed(ledger_error, committed)

    # Primary recovery (schedule disarmed but still counting: the counter
    # afterwards is the number of redo device writes).
    snapshot = image.device.snapshot_payloads()
    schedule.reset("armed", None)
    report = recover(image)
    redo_writes = schedule.boundary_count
    audit = audit_committed(
        image, report, ledger, exact=True, pages=range(num_pages),
    )

    # Crash-during-recovery: re-crash before every redo write in turn,
    # then re-run recovery to completion — the device must still reach the
    # ledger exactly (redo idempotence).
    targets = range(redo_writes)
    if max_redo_crashes is not None:
        targets = _spread(redo_writes, max_redo_crashes)
    tested = 0
    redo_ok = 0
    for target in targets:
        image.device.restore_payloads(snapshot)
        schedule.reset("armed", (target, 0), site_override="redo-write")
        try:
            recover(image)
            # Recovery finishing means the armed redo write never came up
            # — restore/replay drift; count as a failed replay.
            tested += 1
            continue
        except PowerFailure:
            pass
        schedule.reset("armed", None)
        rerun = recover(image)
        re_audit = audit_committed(
            image, rerun, ledger, exact=True, pages=range(num_pages),
        )
        tested += 1
        if re_audit.ok:
            redo_ok += 1

    return CrashPointOutcome(
        point=point,
        committed_updates=committed,
        lost_updates=audit.lost_updates,
        phantom_pages=audit.phantom_pages,
        redo_writes=redo_writes,
        redo_crashes_tested=tested,
        redo_crashes_ok=redo_ok,
    )


def run_crashpoints(
    policies: tuple[str, ...] = PAPER_POLICIES,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    num_pages: int = 400,
    ops: int = 1_500,
    seed: int = 7,
    commit_every: int = 48,
    max_points: int | None = 64,
    max_redo_crashes: int | None = 8,
    profile: DeviceProfile = PCIE_SSD,
) -> CrashPointReport:
    """The full sweep: every policy x variant cell, independently."""
    configs = []
    for policy in policies:
        for variant in variants:
            configs.append(run_crashpoint_config(
                policy, variant,
                num_pages=num_pages, ops=ops, seed=seed,
                commit_every=commit_every, max_points=max_points,
                max_redo_crashes=max_redo_crashes, profile=profile,
            ))
    return CrashPointReport(configs=tuple(configs), seed=seed)


def smoke_report(seed: int = 7) -> CrashPointReport:
    """The CI smoke sweep: two policies x the three variants, tightly bounded."""
    return run_crashpoints(
        policies=("lru", "clock"),
        num_pages=240,
        ops=900,
        seed=seed,
        commit_every=32,
        max_points=24,
        max_redo_crashes=4,
    )
