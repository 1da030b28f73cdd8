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

from dataclasses import dataclass
from itertools import accumulate

from repro.bench.report import format_table
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import (
    audit_committed,
    recover,
    simulate_crash,
)
from repro.bufferpool.wal import WalRecord, WalRecordKind, WriteAheadLog
from repro.core.stack import VARIANTS, build_manager
from repro.engine.executor import DurableRun
from repro.errors import PowerFailure
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.policies.registry import PAPER_POLICIES
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MU, generate_trace

__all__ = [
    "CrashPoint",
    "CrashPointOutcome",
    "CrashConfigReport",
    "CrashPointReport",
    "CrashSchedule",
    "format_report",
    "run_crashpoint_config",
    "run_sweep",
    "smoke_grid",
]

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

    It is the data device's :class:`~repro.faults.device.FaultyDevice`
    injector (a tear is a ``POWER_FAILURE`` event) and the WAL's
    ``flush_hook``.  The wrapped device keeps the stack off the executor's
    inlined loop: every request goes through ``manager.access``.
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

    def on_read(self, pages: tuple[int, ...]) -> None:
        """Reads are not write boundaries: they never crash."""
        return None

    def on_write(self, pages: tuple[int, ...]) -> FaultEvent | None:
        """A data-device write batch is one ``data-write`` boundary; an
        armed tear ``k`` there lands ``pages[:k]``, then the power fails."""
        tear = self.on_boundary("data-write", len(pages))
        if tear is None:
            return None
        ordinal, site = self.fired  # type: ignore[misc]
        return FaultEvent(
            ordinal, site, FaultKind.POWER_FAILURE,
            pages=pages[tear:], acknowledged=pages[:tear],
        )

    def wal_flush_hook(self, records: tuple[WalRecord, ...]) -> int | None:
        """Adapter for :attr:`WriteAheadLog.flush_hook`."""
        site = (
            "wal-checkpoint"
            if any(r.kind is WalRecordKind.CHECKPOINT for r in records)
            else "wal-flush"
        )
        return self.on_boundary(site, len(records))


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
) -> CrashConfigReport:
    """Enumerate and test every crash point of one (policy, variant) cell.

    Pass ``max_points``/``max_redo_crashes`` to bound the sweep: points are
    then subsampled evenly (deterministically) over the enumeration and the
    skipped count is reported — never silently dropped.  ``None`` removes
    the bound.
    """
    schedule = CrashSchedule()
    trace = generate_trace(MU, num_pages, ops, seed=seed)

    def run() -> tuple[BufferPoolManager, bool]:
        """A fresh WAL stack whose device and log consult ``schedule``,
        driven through the trace: the manager, and whether the power
        failed."""
        clock = VirtualClock()
        base = SimulatedSSD(PCIE_SSD, num_pages=num_pages, clock=clock)
        base.format_pages(range(num_pages))
        wal = WriteAheadLog(clock)
        wal.flush_hook = schedule.wal_flush_hook
        manager = build_manager(
            FaultyDevice(base, FaultPlan(), injector=schedule),
            max(16, num_pages // 5), policy, variant, wal=wal,
        )
        try:
            DurableRun(manager, commit_every).run(
                trace, f"crashpoints/{policy}/{variant}"
            )
        except PowerFailure:
            return manager, True
        return manager, False

    # Pass 1 — record: run to completion, enumerating every boundary.
    schedule.reset("record")
    run()
    boundaries = list(schedule.boundaries)
    # Data pages written before each boundary (and by the end of the run):
    # an armed run must have landed exactly these plus its torn prefix.
    written = list(accumulate(
        (size if site == "data-write" else 0 for site, size in boundaries),
        initial=0,
    ))

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
            point, schedule, run, num_pages, max_redo_crashes,
            written[point.ordinal]
            + (point.tear if point.site == "data-write" else 0),
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
    schedule: CrashSchedule,
    run,
    num_pages: int,
    max_redo_crashes: int | None,
    landed: int,
) -> CrashPointOutcome:
    """Pass 2 — armed: replay, crash at ``point``, recover, audit, re-crash.

    ``run`` builds and drives a fresh stack over ``schedule``; ``landed``
    is the data pages the crash must leave written: the record run's
    before this boundary, plus the torn prefix of a data write.
    """

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
    manager, crashed = run()
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
    if manager.device.stats.writes != landed:
        return _failed(
            f"crash point {point.label} left {manager.device.stats.writes} "
            f"data pages written, not {landed}"
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


def run_sweep(
    policies: tuple[str, ...] = PAPER_POLICIES,
    num_pages: int = 400,
    ops: int = 1_500,
    seed: int = 7,
    commit_every: int = 48,
    max_points: int = 64,
    max_redo_crashes: int | None = 8,
) -> CrashPointReport:
    """The full sweep: every policy x variant cell, independently, with at
    most ``max_points`` crash points per cell (0 = every point)."""
    configs = []
    for policy in policies:
        for variant in VARIANTS:
            configs.append(run_crashpoint_config(
                policy, variant,
                num_pages=num_pages, ops=ops, seed=seed,
                commit_every=commit_every, max_points=max_points or None,
                max_redo_crashes=max_redo_crashes,
            ))
    return CrashPointReport(configs=tuple(configs), seed=seed)


def smoke_grid() -> CrashPointReport:
    """The CI smoke sweep: two policies x the three variants, tightly bounded."""
    return run_sweep(
        policies=("lru", "clock"),
        num_pages=240,
        ops=900,
        commit_every=32,
        max_points=24,
        max_redo_crashes=4,
    )


def format_report(report: CrashPointReport) -> str:
    """The ``crashpoints`` verdict: one row per cell, a ``FAIL`` line per
    failed crash point, and the closing summary line."""
    rows = [
        [
            "ok" if config.ok else "FAIL",
            config.label,
            str(config.boundaries),
            str(config.points_tested),
            str(config.points_skipped),
            str(config.redo_crashes_tested),
            str(sum(o.lost_updates for o in config.outcomes)),
            str(sum(o.phantom_pages for o in config.outcomes)),
        ]
        for config in report.configs
    ]
    lines = [format_table(
        ["", "config", "boundaries", "points", "skipped", "redo-crashes",
         "lost", "phantom"],
        rows,
        title=f"Crash-point verification (seed={report.seed})",
    )]
    for config in report.failures:
        for outcome in config.failures:
            reason = outcome.error or (
                f"{outcome.lost_updates} lost, "
                f"{outcome.phantom_pages} phantom, redo replays "
                f"{outcome.redo_crashes_ok}/{outcome.redo_crashes_tested}"
            )
            lines.append(f"FAIL {config.label} {outcome.point.label}: {reason}")
    if report.ok:
        lines.append(
            f"all {len(report.configs)} configs crash-consistent "
            f"({report.points_tested} crash points, "
            f"{report.redo_crashes_tested} recovery re-crashes, "
            f"0 committed updates lost, 0 phantom pages)"
        )
    return "\n".join(lines)
