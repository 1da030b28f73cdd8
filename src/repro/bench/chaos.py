"""Chaos harness: crash-and-recover sweeps under deterministic fault injection.

The paper's safety story is that delaying and batching data-page writes
(background writer, checkpointer, ACE's ``n_w``-page write-back) never
loses *committed* work, because WAL-before-data plus redo recovery covers
every delayed page.  This harness attacks that story on purpose: it sweeps
fault rates x replacement policies x {baseline, ACE}, runs a write-heavy
trace with periodic commit points against a fault-injecting device, crashes
the stack mid-run, recovers from the WAL, and counts committed updates
that did not survive.  The acceptance bar is exactly zero lost updates in
every cell — including the cells where write batches tear, transient errors
exhaust retries, and checkpoints are withheld.

A second cell type attacks the *quiet* failure mode: silent corruption.
:func:`run_corruption_cell` runs a checksummed stack while the injector
rots pages, misdirects writes, and drops writes without any error surfacing,
then requires every corruption to be detected (checksum on read, or the
idle scrubber's WAL cross-check) and healed from WAL redo images until the
device matches the write ledger exactly.

Everything is virtual-time deterministic: the same seed produces the same
trace, the same fault schedule, and therefore the same cell results, so a
red cell is reproducible by calling :func:`run_cell` with its policy,
variant and rate.  ``python -m repro chaos [--smoke]`` prints
:func:`format_report` and exits non-zero on any lost update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.report import format_table
from repro.bench.runner import StackConfig, build_stack
from repro.bufferpool.background import IdleScrubber
from repro.bufferpool.recovery import (
    CrashImage,
    audit_committed,
    recover,
    simulate_crash,
    write_ledger,
)
from repro.engine.executor import DurableRun
from repro.engine.serving import ServingConfig, ServingLayer
from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MU, generate_trace

__all__ = [
    "ChaosCellResult",
    "ChaosReport",
    "CorruptionCellResult",
    "DEFAULT_POLICIES",
    "DEFAULT_RATES",
    "VARIANTS",
    "format_report",
    "run_cell",
    "run_corruption_cell",
    "run_sweep",
    "smoke_grid",
]

#: The acceptance grid: fault rates x policies x variants.
DEFAULT_RATES = (0.0, 0.001, 0.01)
DEFAULT_POLICIES = ("lru", "clock", "cflru")
VARIANTS = ("baseline", "ace")

#: Requests between commit points (WAL flushes) in every cell, and how
#: far through its trace every cell loses power.
COMMIT_EVERY = 64
CRASH_FRACTION = 2 / 3

#: The smoke grid's served cell: open-loop arrivals every 30 µs into a
#: 16-deep queue, so admission sheds while faults fire and the run crashes.
SMOKE_SERVING = ServingConfig(
    queue_capacity=16,
    deadline_us=200_000.0,
    shed_policy="drop-oldest",
    arrival_interval_us=30.0,
)


@dataclass(frozen=True)
class ChaosCellResult:
    """One (policy, variant, rate) crash-and-recover experiment."""

    policy: str
    variant: str
    rate: float
    ops_run: int
    committed_updates: int
    #: Committed updates missing from the device after recovery — the
    #: harness's single pass/fail criterion.  Must be zero.
    lost_updates: int
    faults_injected: int
    io_retries: int
    degraded_writebacks: int
    failed_writebacks: int
    checkpoints_skipped: int
    redo_applied: int
    redo_retries: int
    #: Set when the run itself died (for example retries exhausted on a
    #: client-visible read); the cell then failed for a non-durability
    #: reason and is reported as such.
    error: str | None = None
    #: Serving-layer counters (zero when the cell ran without a serving
    #: layer in front of the executor).
    shed: int = 0
    expired: int = 0
    requeued: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None and self.lost_updates == 0

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}@{self.rate:g}"


@dataclass(frozen=True)
class ChaosReport:
    """All cells of one chaos sweep."""

    cells: tuple[ChaosCellResult, ...]
    seed: int
    #: The smoke grid's silent-corruption cell and served cell (``None``
    #: in the full sweep).
    corruption: CorruptionCellResult | None = None
    served: ChaosCellResult | None = None

    @property
    def ok(self) -> bool:
        extra = (self.corruption, self.served)
        return all(cell.ok for cell in (*self.cells, *extra) if cell is not None)

    @property
    def failures(self) -> tuple[ChaosCellResult, ...]:
        return tuple(cell for cell in self.cells if not cell.ok)

    @property
    def total_faults(self) -> int:
        return sum(cell.faults_injected for cell in self.cells)

    @property
    def total_lost(self) -> int:
        return sum(cell.lost_updates for cell in self.cells)


def run_cell(
    policy: str,
    variant: str,
    rate: float,
    num_pages: int = 2_000,
    ops: int = 6_000,
    seed: int = 7,
    serving: ServingConfig | None = None,
) -> ChaosCellResult:
    """Run one crash-and-recover cell and audit committed durability.

    The stack replays a write-heavy uniform trace (commit point — a WAL
    flush — every :data:`COMMIT_EVERY` requests) with the background writer
    and checkpointer attached, then "loses power" :data:`CRASH_FRACTION`
    of the way through, recovers from the WAL, and compares every page's recovered
    payload against the version it had at the last commit point.  Page
    payloads are monotone version counters, so an update is *lost* exactly
    when a page's durable version is below its committed version.

    With ``serving`` set, the prefix runs through the admission layer
    instead: under open-loop overload some writes are shed or expired and
    never execute, so the trace prefix no longer describes the committed
    work.  The ledger then comes from the serving layer's own
    ``committed_versions`` snapshot — per-page completed-write versions
    captured at the last WAL flush — and the audit answers the question
    the satellite asks: shedding must only ever drop *unadmitted* work,
    never work a commit point already covered.
    """
    retry = RetryPolicy()
    plan = FaultPlan.uniform(rate, seed=seed)
    config = StackConfig(
        profile=PCIE_SSD,
        policy=policy,
        variant=variant,
        num_pages=num_pages,
        with_wal=True,
        fault_plan=plan,
        retry=retry,
    )
    manager = build_stack(config)
    trace = generate_trace(MU, num_pages, ops, seed=seed)
    crash_at = max(COMMIT_EVERY, int(len(trace) * CRASH_FRACTION))
    prefix = trace.slice(0, crash_at)

    # The durability ledger: page -> version at the last commit point.
    # Every executed write increments its page's version counter by one.
    # Without a serving layer every trace write executes, so the committed
    # version is each page's write count over the ops preceding the last
    # commit boundary before the crash.  With a serving layer the ledger
    # is instead snapshotted by the layer itself at each WAL flush (the
    # trace prefix no longer describes the executed work once requests
    # shed or expire); it is read back after the run below.
    committed: dict[int, int] = {}
    if serving is None:
        boundary = (crash_at // COMMIT_EVERY) * COMMIT_EVERY
        committed = write_ledger(
            prefix.pages[:boundary], prefix.writes[:boundary]
        )

    durable = DurableRun(manager, COMMIT_EVERY)

    # A prebuilt layer (rather than passing the config through run_trace)
    # keeps its metrics — and with them the committed-version ledger —
    # reachable even when the run dies mid-way.
    layer = ServingLayer(manager, serving) if serving is not None else None
    metrics = None
    error: str | None = None
    try:
        metrics = durable.run(
            prefix, f"chaos/{policy}/{variant}@{rate:g}", serving=layer
        )
    except ReproError as exc:
        # The workload itself died (e.g. a client-visible read exhausted
        # its retries).  That is a legitimate harness outcome to report —
        # the durability audit below still runs on whatever committed.
        error = f"{type(exc).__name__}: {exc}"

    serving_metrics = layer.metrics if layer is not None else None
    if serving_metrics is not None:
        committed = dict(serving_metrics.committed_versions)

    buffer_stats = manager.stats
    device_stats = manager.device.stats
    image = simulate_crash(manager)
    report = recover(image, retry=retry)
    audit = audit_committed(image, report, committed)

    return ChaosCellResult(
        policy=policy,
        variant=variant,
        rate=rate,
        ops_run=metrics.ops if metrics is not None else crash_at,
        committed_updates=audit.committed_updates,
        lost_updates=audit.lost_updates,
        faults_injected=device_stats.faults_injected,
        io_retries=buffer_stats.io_retries,
        degraded_writebacks=buffer_stats.degraded_writebacks,
        failed_writebacks=buffer_stats.failed_writebacks,
        checkpoints_skipped=durable.checkpointer.checkpoints_skipped,
        redo_applied=report.redo_applied,
        redo_retries=report.redo_retries,
        error=error,
        shed=serving_metrics.shed if serving_metrics is not None else 0,
        expired=serving_metrics.expired if serving_metrics is not None else 0,
        requeued=serving_metrics.requeued if serving_metrics is not None else 0,
    )


@dataclass(frozen=True)
class CorruptionCellResult:
    """One silent-corruption detect-and-repair experiment.

    The stack runs with per-page checksums and an idle-time scrubber while
    the device silently decays pages (bitrot), misdirects writes, and
    drops writes on the floor.  The cell passes when every surviving
    corruption is scrubbed out after the run and the healed device matches
    the write ledger *exactly* — silent faults must be detectable and
    repairable from WAL redo images, never absorbed into wrong data.
    """

    policy: str
    variant: str
    rate: float
    ops_run: int
    #: Corruptions the injector introduced (device counter).
    corruptions_injected: int
    #: Checksum failures caught on the client read path mid-run, and how
    #: many of those pages the manager healed inline from the WAL.
    read_path_detections: int
    read_path_repairs: int
    #: Scrubber totals across the run and the post-run healing passes.
    scrub_detected: int
    scrub_repaired: int
    #: Post-run ``scrub_all`` passes until a pass found nothing.
    scrub_passes: int
    #: Corruption still detectable after the healing passes.  Must be zero.
    residual_corruption: int
    lost_updates: int
    phantom_pages: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.residual_corruption == 0
            and self.lost_updates == 0
            and self.phantom_pages == 0
        )

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}@silent:{self.rate:g}"


def run_corruption_cell(seed: int = 7) -> CorruptionCellResult:
    """Run the silent-corruption cell (lru/ace, silent-fault rate 0.01,
    1,800 requests over 600 pages): inject, detect, repair, audit.

    No crash here — the threat model is the quiet one: the run completes
    "successfully" while pages rot underneath it.  Checksums catch
    corruption on read (the manager heals inline from WAL redo), the idle
    scrubber catches it between requests, and post-run ``scrub_all``
    passes heal whatever neither path touched.  The final exact audit
    proves the device equals the write ledger on *every* page, including
    neighbours clobbered by misdirected writes.
    """
    policy, variant, rate, num_pages, ops = "lru", "ace", 0.01, 600, 1_800
    plan = FaultPlan.silent(rate, seed=seed)
    config = StackConfig(
        profile=PCIE_SSD,
        policy=policy,
        variant=variant,
        num_pages=num_pages,
        with_wal=True,
        checksums=True,
        fault_plan=plan,
    )
    manager = build_stack(config)
    trace = generate_trace(MU, num_pages, ops, seed=seed)

    # Every trace write executes (no serving layer), so the final ledger
    # is each page's total write count.
    ledger = write_ledger(trace.pages, trace.writes)

    durable = DurableRun(manager, COMMIT_EVERY)
    scrubber = IdleScrubber(manager, interval_us=40_000.0)

    error: str | None = None
    metrics = None
    try:
        metrics = durable.run(
            trace, f"corruption/{policy}/{variant}@{rate:g}",
            scrubber=scrubber,
        )
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"

    # Quiesce: flush every dirty page so the device should now equal the
    # ledger everywhere, then heal until a full scrub pass finds nothing.
    # Repair writes flow through the injector too, so one pass may not
    # converge; the bound keeps a pathological seed from looping forever.
    durable.checkpointer.checkpoint()
    scrub = scrubber.scrubber
    passes = 0
    residual = 0
    while passes < 5:
        before = scrub.stats.detected
        scrub.scrub_all()
        passes += 1
        residual = scrub.stats.detected - before
        if residual == 0:
            break

    image = CrashImage(
        device=manager.device, wal=manager.wal, lost_dirty_pages=(),
    )
    audit = audit_committed(
        image, None, ledger, exact=True, pages=range(num_pages),
    )

    return CorruptionCellResult(
        policy=policy,
        variant=variant,
        rate=rate,
        ops_run=metrics.ops if metrics is not None else len(trace),
        corruptions_injected=manager.device.stats.silent_corruptions,
        read_path_detections=manager.stats.corrupt_page_reads,
        read_path_repairs=manager.stats.pages_repaired,
        scrub_detected=scrub.stats.detected,
        scrub_repaired=scrub.stats.repaired,
        scrub_passes=passes,
        residual_corruption=residual,
        lost_updates=audit.lost_updates,
        phantom_pages=audit.phantom_pages,
        error=error,
    )


def run_sweep(
    rates: tuple[float, ...] = DEFAULT_RATES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    num_pages: int = 2_000,
    ops: int = 6_000,
    seed: int = 7,
) -> ChaosReport:
    """Sweep the full grid; every cell runs independently and to completion."""
    cells = []
    for rate in rates:
        for policy in policies:
            for variant in VARIANTS:
                cells.append(run_cell(
                    policy, variant, rate,
                    num_pages=num_pages, ops=ops, seed=seed,
                ))
    return ChaosReport(cells=tuple(cells), seed=seed)


def smoke_grid() -> ChaosReport:
    """The CI smoke sweep: two rates, two policies, both variants, short
    runs; plus the silent-corruption cell and the served cell (lru/ace at
    rate 0.01 behind :data:`SMOKE_SERVING`)."""
    grid = run_sweep(
        rates=(0.0, 0.01), policies=("lru", "clock"), num_pages=800, ops=2_400,
    )
    served = run_cell(
        "lru", "ace", 0.01, num_pages=800, ops=2_400, serving=SMOKE_SERVING,
    )
    return replace(grid, corruption=run_corruption_cell(), served=served)


def format_report(report: ChaosReport) -> str:
    """The ``chaos`` verdict: the cell table, a ``FAIL`` line per failed
    cell, the smoke grid's extra cells, and the closing summary line."""
    rows = [
        [
            "ok" if cell.ok else "FAIL",
            cell.label,
            str(cell.faults_injected),
            str(cell.io_retries),
            str(cell.degraded_writebacks),
            str(cell.failed_writebacks),
            str(cell.checkpoints_skipped),
            str(cell.committed_updates),
            str(cell.lost_updates),
        ]
        for cell in report.cells
    ]
    lines = [format_table(
        ["", "cell", "faults", "retries", "degr-wb", "failed-wb",
         "ckpt-skip", "committed", "lost"],
        rows,
        title=f"Chaos sweep (seed={report.seed})",
    )]
    for cell in report.failures:
        reason = cell.error if cell.error else f"{cell.lost_updates} lost"
        lines.append(f"FAIL {cell.label}: {reason}")
    corruption = report.corruption
    if corruption is not None:
        status = "ok  " if corruption.ok else "FAIL"
        lines.append(
            f"{status} {corruption.label}: "
            f"{corruption.corruptions_injected} silent corruptions injected, "
            f"{corruption.read_path_detections} caught on read "
            f"({corruption.read_path_repairs} healed inline), "
            f"{corruption.scrub_detected} scrubbed, "
            f"{corruption.residual_corruption} residual"
        )
        if not corruption.ok and corruption.error:
            lines.append(f"FAIL {corruption.label}: {corruption.error}")
    served = report.served
    if served is not None:
        lines.append(
            f"{'ok  ' if served.ok else 'FAIL'} {served.label} served: "
            f"{served.shed} shed at admission, "
            f"{served.committed_updates} committed updates, "
            f"{served.lost_updates} lost"
        )
        if served.error:
            lines.append(f"FAIL {served.label} served: {served.error}")
    if report.ok:
        lines.append(
            f"all {len(report.cells)} cells durable "
            f"({report.total_faults} faults injected, 0 committed updates lost)"
        )
    return "\n".join(lines)
