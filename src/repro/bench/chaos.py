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
red cell is reproducible with ``python -m repro chaos --seed <s>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import StackConfig, build_stack
from repro.bufferpool.background import (
    BackgroundWriter,
    Checkpointer,
    IdleScrubber,
)
from repro.bufferpool.recovery import (
    CrashImage,
    audit_committed,
    recover,
    simulate_crash,
    write_ledger,
)
from repro.core.ace import ACEBufferPoolManager
from repro.engine.executor import ExecutionOptions, run_trace
from repro.engine.serving import ServingConfig, ServingLayer
from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.storage.profiles import PCIE_SSD, DeviceProfile
from repro.workloads.synthetic import MU, generate_trace

__all__ = [
    "ChaosCellResult",
    "ChaosReport",
    "CorruptionCellResult",
    "DEFAULT_POLICIES",
    "DEFAULT_RATES",
    "DEFAULT_VARIANTS",
    "run_cell",
    "run_chaos",
    "run_corruption_cell",
    "smoke_corruption",
    "smoke_grid",
]

#: The acceptance grid: fault rates x policies x variants.
DEFAULT_RATES = (0.0, 0.001, 0.01)
DEFAULT_POLICIES = ("lru", "clock", "cflru")
DEFAULT_VARIANTS = ("baseline", "ace")


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

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

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
    profile: DeviceProfile = PCIE_SSD,
    num_pages: int = 2_000,
    ops: int = 6_000,
    seed: int = 7,
    commit_every: int = 64,
    crash_fraction: float = 2 / 3,
    retry: RetryPolicy | None = None,
    serving: ServingConfig | None = None,
) -> ChaosCellResult:
    """Run one crash-and-recover cell and audit committed durability.

    The stack replays a write-heavy uniform trace (commit point — a WAL
    flush — every ``commit_every`` requests) with the background writer and
    checkpointer attached, then "loses power" ``crash_fraction`` of the way
    through, recovers from the WAL, and compares every page's recovered
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
    if retry is None:
        retry = RetryPolicy()
    plan = FaultPlan.uniform(rate, seed=seed)
    options = ExecutionOptions(
        cpu_us_per_op=2.0,
        bg_writer_interval_us=20_000.0,
        checkpoint_interval_us=100_000.0,
        commit_every_ops=commit_every,
    )
    config = StackConfig(
        profile=profile,
        policy=policy,
        variant=variant,
        num_pages=num_pages,
        with_wal=True,
        fault_plan=plan,
        retry=retry,
        options=options,
    )
    manager = build_stack(config)
    trace = generate_trace(MU, num_pages, ops, seed=seed)
    crash_at = max(commit_every, int(len(trace) * crash_fraction))
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
        boundary = (crash_at // commit_every) * commit_every
        committed = write_ledger(
            prefix.pages[:boundary], prefix.writes[:boundary]
        )

    if isinstance(manager, ACEBufferPoolManager):
        batch_size = manager.config.n_w
    else:
        batch_size = 1
    bg_writer = BackgroundWriter(manager, pages_per_round=16,
                                 batch_size=batch_size)
    checkpointer = Checkpointer(manager, interval_us=options.checkpoint_interval_us,
                                batch_size=batch_size)

    # A prebuilt layer (rather than passing the config through run_trace)
    # keeps its metrics — and with them the committed-version ledger —
    # reachable even when the run dies mid-way.
    layer = ServingLayer(manager, serving) if serving is not None else None
    metrics = None
    error: str | None = None
    try:
        metrics = run_trace(
            manager, prefix, options=options,
            bg_writer=bg_writer, checkpointer=checkpointer,
            label=f"chaos/{policy}/{variant}@{rate:g}",
            serving=layer,
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
        checkpoints_skipped=checkpointer.checkpoints_skipped,
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


def run_corruption_cell(
    policy: str = "lru",
    variant: str = "ace",
    rate: float = 0.002,
    profile: DeviceProfile = PCIE_SSD,
    num_pages: int = 800,
    ops: int = 2_400,
    seed: int = 7,
    commit_every: int = 64,
    max_heal_passes: int = 5,
) -> CorruptionCellResult:
    """Run one silent-corruption cell: inject, detect, repair, audit.

    No crash here — the threat model is the quiet one: the run completes
    "successfully" while pages rot underneath it.  Checksums catch
    corruption on read (the manager heals inline from WAL redo), the idle
    scrubber catches it between requests, and post-run ``scrub_all``
    passes heal whatever neither path touched.  The final exact audit
    proves the device equals the write ledger on *every* page, including
    neighbours clobbered by misdirected writes.
    """
    plan = FaultPlan.silent(rate, seed=seed)
    options = ExecutionOptions(
        cpu_us_per_op=2.0,
        bg_writer_interval_us=20_000.0,
        checkpoint_interval_us=100_000.0,
        commit_every_ops=commit_every,
    )
    config = StackConfig(
        profile=profile,
        policy=policy,
        variant=variant,
        num_pages=num_pages,
        with_wal=True,
        checksums=True,
        fault_plan=plan,
        options=options,
    )
    manager = build_stack(config)
    trace = generate_trace(MU, num_pages, ops, seed=seed)

    # Every trace write executes (no serving layer), so the final ledger
    # is each page's total write count.
    ledger = write_ledger(trace.pages, trace.writes)

    if isinstance(manager, ACEBufferPoolManager):
        batch_size = manager.config.n_w
    else:
        batch_size = 1
    bg_writer = BackgroundWriter(manager, pages_per_round=16,
                                 batch_size=batch_size)
    checkpointer = Checkpointer(manager,
                                interval_us=options.checkpoint_interval_us,
                                batch_size=batch_size)
    scrubber = IdleScrubber(manager, interval_us=40_000.0)

    error: str | None = None
    metrics = None
    try:
        metrics = run_trace(
            manager, trace, options=options,
            bg_writer=bg_writer, checkpointer=checkpointer,
            scrubber=scrubber,
            label=f"corruption/{policy}/{variant}@{rate:g}",
        )
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"

    # Quiesce: flush every dirty page so the device should now equal the
    # ledger everywhere, then heal until a full scrub pass finds nothing.
    # Repair writes flow through the injector too, so one pass may not
    # converge; the bound keeps a pathological seed from looping forever.
    checkpointer.checkpoint()
    scrub = scrubber.scrubber
    passes = 0
    residual = 0
    while passes < max_heal_passes:
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


def smoke_corruption(seed: int = 7) -> CorruptionCellResult:
    """The CI smoke corruption cell: one policy, ACE variant, short run."""
    return run_corruption_cell(
        policy="lru", variant="ace", rate=0.01,
        num_pages=600, ops=1_800, seed=seed,
    )


def run_chaos(
    rates: tuple[float, ...] = DEFAULT_RATES,
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    profile: DeviceProfile = PCIE_SSD,
    num_pages: int = 2_000,
    ops: int = 6_000,
    seed: int = 7,
    commit_every: int = 64,
    serving: ServingConfig | None = None,
) -> ChaosReport:
    """Sweep the full grid; every cell runs independently and to completion."""
    cells = []
    for rate in rates:
        for policy in policies:
            for variant in variants:
                cells.append(run_cell(
                    policy, variant, rate,
                    profile=profile, num_pages=num_pages, ops=ops,
                    seed=seed, commit_every=commit_every, serving=serving,
                ))
    return ChaosReport(cells=tuple(cells), seed=seed)


def smoke_grid(seed: int = 7) -> ChaosReport:
    """The CI smoke sweep: two rates, two policies, both variants, short runs."""
    return run_chaos(
        rates=(0.0, 0.01),
        policies=("lru", "clock"),
        num_pages=800,
        ops=2_400,
        seed=seed,
    )
