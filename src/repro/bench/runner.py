"""Experiment runner: build (device, policy, manager) stacks and compare them.

Encapsulates the paper's methodology (§VI): for each configuration a fresh
device is created and formatted, the *same* pre-generated request stream is
replayed against the baseline manager and its ACE counterparts, and metrics
come off the shared virtual clock.  Reusing one trace across variants is
the apples-to-apples property the paper gets by re-running identical
pgbench/TPC-C settings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.stack import VARIANTS, build_manager
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.metrics import RunMetrics
from repro.faults import FaultPlan, FaultyDevice, RetryPolicy
from repro.prefetch.base import Prefetcher
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import PageRequest, Trace

__all__ = [
    "StackConfig",
    "build_stack",
    "run_config",
    "compare_policies",
    "FAULTS_ENV_VAR",
    "VARIANTS",
]

#: Environment switch: a :meth:`repro.faults.FaultPlan.parse` spec (for
#: example ``0.01`` or ``read=0.01,torn=0.005,seed=7``) makes every stack
#: built here run behind a :class:`~repro.faults.FaultyDevice`.  Setting it
#: to ``0`` attaches a *disarmed* wrapper — the pass-through CI job uses
#: that to pin down that a rate-0 wrapper changes nothing.
FAULTS_ENV_VAR = "REPRO_FAULTS"


@dataclass(frozen=True)
class StackConfig:
    """Everything needed to build a (device, policy, manager) stack.

    Parameters
    ----------
    profile:
        Device profile (asymmetry/concurrency characteristics).
    policy:
        Replacement policy registry name.
    variant:
        "baseline" (classic single-I/O), "ace" (batched write-back), or
        "ace+pf" (batched write-back + concurrent prefetching).
    num_pages:
        Database size in pages.
    pool_fraction:
        Bufferpool capacity as a fraction of the database size (the paper
        uses 6 % unless sweeping memory pressure).
    n_w, n_e:
        ACE overrides; default to the device's ``k_w`` (the paper's tuning).
    with_ftl:
        Attach an FTL for physical-write accounting.
    with_wal:
        Attach a write-ahead log on a separate simulated device.
    checksums:
        Keep per-page checksums on the data device so silent corruption
        (bitrot, misdirected and lost writes) is detected on read; see
        :mod:`repro.storage.device`.
    sanitize:
        Attach the runtime invariant sanitizer to the manager (``None``
        defers to the ``REPRO_SANITIZE`` environment switch).  Debugging
        aid; see :mod:`repro.analyze.sanitizer`.
    fault_plan:
        Wrap the device in a :class:`~repro.faults.FaultyDevice` driven by
        this plan (``None`` defers to the ``REPRO_FAULTS`` environment
        switch; see :data:`FAULTS_ENV_VAR`).
    retry:
        Retry policy handed to the manager for faulted I/O (``None`` means
        the stack-wide default).
    options:
        Execution-model knobs (CPU costs, background intervals).
    """

    profile: DeviceProfile
    policy: str
    variant: str
    num_pages: int
    pool_fraction: float = 0.06
    n_w: int | None = None
    n_e: int | None = None
    with_ftl: bool = False
    with_wal: bool = False
    checksums: bool = False
    over_provision: float = 0.10
    sanitize: bool | None = None
    fault_plan: FaultPlan | None = None
    retry: RetryPolicy | None = None
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.num_pages < 8:
            raise ValueError("database must have at least 8 pages")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError(
                f"pool fraction must be in (0, 1]: {self.pool_fraction}"
            )

    @property
    def pool_capacity(self) -> int:
        return max(4, int(self.num_pages * self.pool_fraction))

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}"


def _env_fault_plan() -> FaultPlan | None:
    """The ``REPRO_FAULTS`` plan, or ``None`` when the switch is unset."""
    spec = os.environ.get(FAULTS_ENV_VAR)
    if spec is None or not spec.strip():
        return None
    return FaultPlan.parse(spec)


def build_stack(
    config: StackConfig, prefetcher: Prefetcher | None = None
) -> BufferPoolManager:
    """Instantiate a fresh formatted device and the configured manager."""
    clock = VirtualClock()
    device = SimulatedSSD(
        config.profile,
        num_pages=config.num_pages,
        clock=clock,
        with_ftl=config.with_ftl,
        over_provision=config.over_provision,
        checksums=config.checksums,
    )
    device.format_pages(range(config.num_pages))
    plan = config.fault_plan if config.fault_plan is not None else _env_fault_plan()
    stack_device = device if plan is None else FaultyDevice(device, plan)
    return build_manager(
        stack_device,
        config.pool_capacity,
        config.policy,
        config.variant,
        n_w=config.n_w,
        n_e=config.n_e,
        wal=WriteAheadLog(clock) if config.with_wal else None,
        prefetcher=prefetcher,
        sanitize=config.sanitize,
        retry=config.retry,
    )


def run_config(
    config: StackConfig,
    trace: Trace,
    label: str | None = None,
) -> RunMetrics:
    """Build the stack for ``config`` and replay ``trace`` through it."""
    manager = build_stack(config)
    return run_trace(
        manager,
        trace,
        options=config.options,
        label=label if label is not None else f"{config.label}/{trace.name}",
    )


def run_config_transactions(
    config: StackConfig,
    transactions: list[tuple[TransactionType, list[PageRequest]]],
    label: str | None = None,
) -> RunMetrics:
    """Build the stack for ``config`` and replay a transaction stream."""
    manager = build_stack(config)
    return run_transactions(
        manager,
        transactions,
        options=config.options,
        label=label if label is not None else config.label,
    )


def compare_policies(
    profile: DeviceProfile,
    policies: tuple[str, ...],
    trace: Trace,
    num_pages: int,
    variants: tuple[str, ...] = VARIANTS,
    pool_fraction: float = 0.06,
    n_w: int | None = None,
    n_e: int | None = None,
    with_ftl: bool = False,
    options: ExecutionOptions | None = None,
    workers: int | None = None,
) -> dict[tuple[str, str], RunMetrics]:
    """Run every (policy, variant) pair on the same trace.

    Returns metrics keyed by ``(policy, variant)`` — the raw material of
    Figures 8, 10 and 11.  Each pair is an independent stack on a private
    clock, so the grid fans out over ``workers`` processes (resolved by
    :func:`repro.bench.parallel.resolve_workers`; ``workers=1`` forces the
    serial path).  Results are identical either way.
    """
    # Imported here: repro.bench.parallel imports this module.
    from repro.bench.parallel import GridJob, run_grid

    if options is None:
        options = ExecutionOptions()
    keys: list[tuple[str, str]] = []
    jobs: list[GridJob] = []
    for policy in policies:
        for variant in variants:
            config = StackConfig(
                profile=profile,
                policy=policy,
                variant=variant,
                num_pages=num_pages,
                pool_fraction=pool_fraction,
                n_w=n_w,
                n_e=n_e,
                with_ftl=with_ftl,
                options=options,
            )
            keys.append((policy, variant))
            jobs.append(
                GridJob(config, trace=trace, label=f"{config.label}/{trace.name}")
            )
    metrics = run_grid(jobs, workers=workers)
    return dict(zip(keys, metrics))
