"""The cluster engine: N shard nodes replayed in parallel, merged exactly.

A *cluster run* models N independent shard nodes, each a complete stack —
its own :class:`~repro.storage.device.SimulatedSSD` on a private virtual
clock, its own replacement policy instance, its own (baseline or ACE)
:class:`~repro.bufferpool.manager.BufferPoolManager` riding the array
translation layer and — either variant, unless the node is a
replica-group member and so keeps a WAL — the executor's inlined turbo
replay.  A deterministic :class:`~repro.cluster.router.ShardRouter`
pre-partitions the workload into per-shard subtraces; each is replayed to
completion on its shard (in a worker process when ``workers > 1``, in
process otherwise); the per-shard :class:`~repro.engine.metrics.RunMetrics`
are then merged in shard order.

Because every shard run is a pure function of its
:class:`ShardJob` — fresh device, fresh clock, no shared state — the
merged metrics are **byte-identical at any worker count**: the parallel
fan-out only changes *where* each pure function is evaluated.  It is
:mod:`repro.bench.parallel`'s fan-out (:mod:`repro.engine.fanout`: fresh
pool per retry round, bounded attempts), except that a shard that still
fails is a hard :class:`~repro.errors.ClusterReplayError` — a cluster
cannot drop a shard and still report merged metrics.

Merge semantics (see docs/architecture.md "Sharded cluster"):

* counters (buffer, device, FTL, WAL) are summed in shard order —
  integer sums commute, float sums are fixed to shard order;
* ``elapsed_us`` is the **makespan**: the max over shard virtual clocks —
  shards are independent nodes serving in parallel, so cluster virtual
  time is bounded by the slowest shard;
* ``serial_elapsed_us`` preserves the sum (what a single node doing all
  the work would have taken) — the 1-shard cluster and the differential
  tests key off it.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.stats import BufferStats
from repro.bufferpool.wal import WriteAheadLog
from repro.cluster.router import HashShardRouter, MappedShardRouter, ShardRouter
from repro.core.stack import VARIANTS, build_manager
from repro.engine.executor import ExecutionOptions, run_trace
from repro.engine.fanout import MAX_ATTEMPTS as MAX_SHARD_ATTEMPTS
from repro.engine.fanout import JobFailure, fan_out
from repro.engine.metrics import RunMetrics
from repro.errors import ClusterReplayError, NodeFailure
from repro.faults.nodes import NodeFaultPlan
from repro.storage.clock import VirtualClock
from repro.storage.device import DeviceStats, SimulatedSSD
from repro.storage.ftl import FtlCounters
from repro.storage.profiles import DeviceProfile
from repro.workloads.trace import Trace

__all__ = [
    "ClusterConfig",
    "ClusterMetrics",
    "ShardJob",
    "ShardResult",
    "MAX_SHARD_ATTEMPTS",
    "build_router",
    "build_shard_stack",
    "merge_shard_metrics",
    "run_cluster",
]

@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build and drive an N-shard cluster.

    Parameters
    ----------
    profile:
        Device profile for every shard node's SSD.
    policy, variant:
        Replacement policy registry name and bufferpool variant
        (``baseline``/``ace``/``ace+pf``) for every shard.
    num_pages:
        Global page space.  Every shard's device covers the whole space
        (pages keep their global ids; a shard simply never sees pages it
        does not own), so the array translation backend's address-space
        auto-selection behaves exactly as in a single-pool run.
    num_shards:
        Shard node count.
    pool_fraction:
        *Cluster-total* buffer capacity as a fraction of the page space,
        split across shards like the partitioned pool splits frames
        (remainder to the first shards).
    placement:
        ``"hash"`` (stateless hash routing) or ``"locality"`` (requires
        ``assignment``).
    assignment:
        Page→shard vector from :mod:`repro.cluster.placement`, required
        for (and only meaningful with) ``placement="locality"``.
    n_w, n_e, options:
        As in :class:`~repro.bench.runner.StackConfig`.
    replication_factor:
        Replicas per shard (``R``).  0 keeps the unreplicated fast path
        — the run is byte-identical to a pre-replication cluster.  With
        ``R > 0`` every shard becomes a 1-primary + R-replica group with
        synchronous WAL shipping (:mod:`repro.cluster.replication`).
    node_faults:
        Deterministic node-crash schedule
        (:class:`~repro.faults.nodes.NodeFaultPlan`); a non-null plan
        routes the run through the replication engine even at ``R = 0``
        (where any primary crash is a structured
        :class:`~repro.errors.NodeFailure`).
    capture_promotion_images:
        Record each promoted replica's durable page images at promotion
        time (the divergence battery's probe; off for bench runs — it
        scans the page space per failover).
    """

    profile: DeviceProfile
    policy: str
    variant: str
    num_pages: int
    num_shards: int
    pool_fraction: float = 0.06
    placement: str = "hash"
    assignment: tuple[int, ...] | None = None
    n_w: int | None = None
    n_e: int | None = None
    options: ExecutionOptions = field(default_factory=ExecutionOptions)
    replication_factor: int = 0
    node_faults: NodeFaultPlan | None = None
    capture_promotion_images: bool = False

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}"
            )
        if self.num_shards < 1:
            raise ValueError(f"need at least one shard: {self.num_shards}")
        if self.num_pages < 8:
            raise ValueError("page space must have at least 8 pages")
        if not 0.0 < self.pool_fraction <= 1.0:
            raise ValueError(
                f"pool fraction must be in (0, 1]: {self.pool_fraction}"
            )
        if self.placement not in ("hash", "locality"):
            raise ValueError(
                f"placement must be 'hash' or 'locality': {self.placement!r}"
            )
        if self.placement == "locality" and self.assignment is None:
            raise ValueError("locality placement needs an assignment vector")
        if self.replication_factor < 0:
            raise ValueError(
                f"replication factor cannot be negative: "
                f"{self.replication_factor}"
            )
        if self.node_faults is not None:
            if not isinstance(self.node_faults, NodeFaultPlan):
                raise ValueError(
                    f"node_faults must be a NodeFaultPlan: "
                    f"{self.node_faults!r}"
                )
            if self.node_faults.max_shard() >= self.num_shards:
                raise ValueError(
                    f"node fault targets shard "
                    f"{self.node_faults.max_shard()} but the cluster has "
                    f"{self.num_shards} shards"
                )
            if self.node_faults.max_node() > self.replication_factor:
                raise ValueError(
                    f"node fault targets node "
                    f"{self.node_faults.max_node()} but replica groups "
                    f"have nodes 0..{self.replication_factor}"
                )

    @property
    def total_capacity(self) -> int:
        """Cluster-wide frame budget (split across shards)."""
        return max(4 * self.num_shards, int(self.num_pages * self.pool_fraction))

    def shard_capacity(self, shard: int) -> int:
        """Frames of one shard (even split, remainder to the first)."""
        base, remainder = divmod(self.total_capacity, self.num_shards)
        return base + (1 if shard < remainder else 0)

    @property
    def replicated(self) -> bool:
        """Whether this run goes through the replication engine."""
        return self.replication_factor > 0 or (
            self.node_faults is not None and not self.node_faults.is_null
        )

    @property
    def label(self) -> str:
        base = (
            f"{self.policy}/{self.variant}/s{self.num_shards}/{self.placement}"
        )
        if self.replication_factor:
            return f"{base}/r{self.replication_factor}"
        return base


def build_router(config: ClusterConfig) -> ShardRouter:
    """The router a config implies (the cluster's page→shard contract)."""
    if config.placement == "locality":
        assert config.assignment is not None  # __post_init__ guarantees
        return MappedShardRouter(config.assignment, config.num_shards)
    return HashShardRouter(config.num_shards)


def build_shard_stack(
    config: ClusterConfig, shard: int, with_wal: bool = False
) -> BufferPoolManager:
    """Build shard node ``shard``: fresh device, clock, policy, manager.

    Replica-group members pass ``with_wal=True``: the log on the node's
    own clock is what a primary ships and what promotion drains, so a
    member without one could take neither role.
    """
    if not 0 <= shard < config.num_shards:
        raise ValueError(
            f"shard {shard} outside [0, {config.num_shards})"
        )
    clock = VirtualClock()
    device = SimulatedSSD(
        config.profile, num_pages=config.num_pages, clock=clock
    )
    device.format_pages(range(config.num_pages))
    return build_manager(
        device,
        config.shard_capacity(shard),
        config.policy,
        config.variant,
        n_w=config.n_w,
        n_e=config.n_e,
        wal=WriteAheadLog(clock) if with_wal else None,
    )


@dataclass(frozen=True)
class ShardJob:
    """One shard's complete replay recipe — pure and picklable.

    The shard's subtrace (``pages``/``writes``) and its config are
    everything the worker needs; nothing is read from process state,
    which is what makes the result independent of *where* the job runs.
    """

    shard: int
    config: ClusterConfig
    pages: tuple[int, ...]
    writes: tuple[bool, ...]
    trace_name: str = "cluster"


@dataclass(frozen=True)
class ShardResult:
    """What one shard replay produced."""

    shard: int
    ops: int
    metrics: RunMetrics
    #: Wall-clock seconds of the replay alone, measured inside the
    #: worker — stack build and pickling excluded, so the number is the
    #: shard node's own serving rate however the jobs were scheduled.
    replay_wall_s: float


def _replay_shard(job: ShardJob) -> ShardResult:
    """Worker-side entry point: build the shard node, replay, measure.

    Everything this function touches is local to the call: the stack is
    built from the job, the subtrace comes with the job, and the result
    is returned, not stored.  (The worker-count identity tests in
    ``tests/cluster`` hold worker entry points to exactly that contract.)
    """
    manager = build_shard_stack(job.config, job.shard)
    trace = Trace(list(job.pages), list(job.writes), name=job.trace_name)
    start = time.perf_counter()
    metrics = run_trace(
        manager, trace, options=job.config.options,
        label=f"{job.config.label}/shard{job.shard}",
    )
    wall_s = time.perf_counter() - start
    return ShardResult(job.shard, metrics.ops, metrics, wall_s)


@dataclass
class ClusterMetrics:
    """Merged cluster measurements plus the per-shard breakdown."""

    label: str
    num_shards: int
    placement: str
    #: Deterministic merge of the shard runs (makespan elapsed; see
    #: :func:`merge_shard_metrics`).
    merged: RunMetrics
    #: Per-shard metrics in shard order (the merge's inputs).
    per_shard: list[RunMetrics]
    per_shard_ops: list[int]
    #: Sum of shard virtual elapsed times (single-node-equivalent work).
    serial_elapsed_us: float
    #: Per-shard replay wall seconds (measurement side-channel; excluded
    #: from determinism comparisons, obviously).
    replay_wall_s: list[float] = field(default_factory=list)
    #: Replication roll-up
    #: (:class:`repro.cluster.replication.ReplicationSummary`) when the
    #: run went through the replication engine; ``None`` on the
    #: unreplicated fast path.  Typed loosely because the engine only
    #: imports the replication module lazily.
    replication: object | None = None

    @property
    def ops(self) -> int:
        return self.merged.ops

    @property
    def aggregate_accesses_per_sec(self) -> float:
        """Cluster throughput under the makespan model.

        Shards are independent nodes; the cluster clears ``sum(ops)``
        work in the wall time of its slowest shard.  Each shard's wall
        clock is measured around its own replay inside the worker, so
        scheduling artifacts (process spawn, pickling, an oversubscribed
        bench host) do not pollute the number.
        """
        slowest = max(self.replay_wall_s, default=0.0)
        if slowest <= 0.0:
            return 0.0
        return self.merged.ops / slowest

    @property
    def ops_imbalance(self) -> float:
        """Max shard ops over the even share (1.0 = perfectly balanced)."""
        if not self.per_shard_ops or self.merged.ops == 0:
            return 1.0
        return max(self.per_shard_ops) / (
            self.merged.ops / len(self.per_shard_ops)
        )


def merge_shard_metrics(
    results: Sequence[ShardResult], label: str
) -> RunMetrics:
    """Merge per-shard runs into one cluster-level :class:`RunMetrics`.

    Deterministic by construction: results are processed in shard order
    whatever order they completed in, and every counter, times included,
    is an integer that sums exactly.  ``elapsed_us`` is the makespan (max
    shard virtual time); ``io_ticks``/``cpu_ticks`` stay sums — they are
    *work*, not spans.
    """
    ordered = sorted(results, key=lambda result: result.shard)
    if not ordered:
        raise ValueError("cannot merge zero shard results")
    buffer = BufferStats()
    device = DeviceStats()
    ftl: FtlCounters | None = (
        FtlCounters()
        if all(result.metrics.ftl is not None for result in ordered)
        else None
    )
    ops = 0
    transactions = 0
    new_order = 0
    wal_pages = 0
    makespan = 0.0
    io_ticks = 0
    cpu_ticks = 0
    for result in ordered:
        metrics = result.metrics
        ops += metrics.ops
        transactions += metrics.transactions
        new_order += metrics.new_order_transactions
        wal_pages += metrics.wal_pages_written
        makespan = max(makespan, metrics.elapsed_us)
        io_ticks += metrics.io_ticks
        cpu_ticks += metrics.cpu_ticks
        buffer.merge(metrics.buffer)
        device.merge(metrics.device)
        if ftl is not None:
            ftl.merge(metrics.ftl)
    return RunMetrics(
        label=label,
        elapsed_us=makespan,
        ops=ops,
        transactions=transactions,
        new_order_transactions=new_order,
        buffer=buffer,
        device=device,
        ftl=ftl,
        wal_pages_written=wal_pages,
        io_ticks=io_ticks,
        cpu_ticks=cpu_ticks,
    )


def _execute_jobs(
    config: ClusterConfig,
    router: ShardRouter,
    trace: Trace,
    workers: int | None,
    worker=_replay_shard,
) -> list:
    """Split ``trace`` with ``router`` and run one :class:`ShardJob` per
    shard (``worker``: the plain or the replicated replay) through
    :func:`repro.engine.fanout.fan_out`, one process per shard by default;
    results in shard order.  A shard that still fails raises
    :class:`~repro.errors.ClusterReplayError` at any worker count.  A
    :class:`~repro.errors.NodeFailure` is a deterministic outcome of the
    job's seeded fault plan: not retried, it rides along as ``failure``.
    """
    if workers is None:
        workers = config.num_shards
    if workers < 1:
        raise ValueError(f"worker count must be at least 1: {workers}")
    jobs = [
        ShardJob(shard, config, tuple(sub_pages), tuple(sub_writes), trace.name)
        for shard, (sub_pages, sub_writes) in enumerate(
            router.split(trace.pages, trace.writes)
        )
    ]
    results = fan_out(worker, jobs, workers, final=(NodeFailure,))
    for job, result in zip(jobs, results):
        if isinstance(result, JobFailure):
            exc = result.error
            raise ClusterReplayError(
                shard=job.shard,
                attempts=result.attempts,
                error=f"{type(exc).__name__}: {exc}",
                failure=exc if isinstance(exc, NodeFailure) else None,
            ) from exc
    return results


def run_cluster(
    config: ClusterConfig,
    trace: Trace,
    workers: int | None = None,
    label: str | None = None,
) -> ClusterMetrics:
    """Split ``trace`` across the cluster, replay every shard, merge.

    Same config + same trace ⇒ byte-identical :class:`ClusterMetrics`
    (modulo the wall-clock side-channel) at any ``workers`` value: the
    split is deterministic, each shard run is a pure function of its
    job, and the merge runs in shard order.

    A config with replicas (or a node-fault schedule) routes through
    :func:`repro.cluster.replication.run_replicated_cluster`; the
    unreplicated path below is untouched by replication — byte-identical
    to what it produced before replica groups existed.
    """
    if config.replicated:
        # Deferred: the replication engine imports this module's job
        # machinery, so a module-scope import would be a cycle.
        from repro.cluster.replication import run_replicated_cluster

        return run_replicated_cluster(
            config, trace, workers=workers, label=label
        )
    results = _execute_jobs(config, build_router(config), trace, workers)
    return _assemble(config, results, label, trace.name)


def _assemble(
    config: ClusterConfig,
    results: Sequence[ShardResult],
    label: str | None,
    trace_name: str,
) -> ClusterMetrics:
    ordered = sorted(results, key=lambda result: result.shard)
    merged_label = (
        label if label is not None else f"{config.label}/{trace_name}"
    )
    merged = merge_shard_metrics(ordered, merged_label)
    return ClusterMetrics(
        label=merged_label,
        num_shards=config.num_shards,
        placement=config.placement,
        merged=merged,
        per_shard=[replace(result.metrics) for result in ordered],
        per_shard_ops=[result.ops for result in ordered],
        serial_elapsed_us=sum(
            result.metrics.elapsed_us for result in ordered
        ),
        replay_wall_s=[result.replay_wall_s for result in ordered],
    )
