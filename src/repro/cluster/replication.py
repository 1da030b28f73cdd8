"""Replica groups: synchronous WAL shipping and deterministic failover.

Under replication every shard of the cluster becomes a *replica group* —
one primary plus ``R`` replicas, each a complete stack (pool, device,
WAL on its own virtual clock) built exactly like an unreplicated shard
node.  The group's contract is the cluster-level version of PR 8's
durability invariant: **no committed update is ever lost, no
uncommitted update is ever silently kept**, however many nodes die
mid-replay.

The protocol, end to end:

1. **Serve.**  The primary replays the shard subtrace in bulk segments
   (:func:`repro.engine.executor.replay`, one CPU charge each) that end
   where its fault plan can next fire or at the ``commit_every`` boundary.
2. **Ship.**  At each group-commit boundary the primary flushes its WAL
   and packs the *newly durable* UPDATE records into one
   :class:`_Shipment`, pushed whole to every live replica.  A replica
   appends it to its own WAL in one batch, flushes, and writes the last
   image per page as **one** device batch — ``ceil(n / k_w)`` write
   waves, the concurrency the paper is about — so a replica's device is
   *definitionally* the committed durable prefix.  The commit waits for
   the slowest replica apply (synchronous replication), charged to the
   primary's clock.
3. **Fail over.**  When a :class:`~repro.faults.nodes.NodeFaultPlan`
   fault kills the primary, the group promotes the most-caught-up live
   replica (max applied commit sequence; ties to the lowest node id).
   Promotion reuses PR 8's recovery machinery verbatim — a
   :class:`~repro.bufferpool.recovery.CrashImage` over the replica's own
   device and WAL through :func:`~repro.bufferpool.recovery.recover`,
   which runs ``verify_durable`` and drains the shipped-WAL
   tail.  The promotion's virtual cost is the shard's failover latency.
   In-flight accesses past the last commit boundary died with the old
   primary; the group **rewinds to the boundary and retries them** on
   the new primary — lost-and-retried, never silently dropped (they are
   the availability metric's numerator deficit).  A candidate whose own
   fault is already due dies *during promotion* and the group falls
   through to the next replica (the double-failure scenario).  When no
   live replica remains the group raises a structured
   :class:`~repro.errors.NodeFailure` carrying the partial metrics.
4. **Rejoin.**  A crashed node with a rejoin schedule comes back empty
   and catches up through anti-entropy: the current primary's whole
   durable history, packed and applied as one more shipment.

Every step is a pure function of the job (config + subtrace + fault
plan), so replicated cluster metrics remain byte-identical at any
worker count, and the whole history — crashes, promotions, rejoins,
retried accesses — replays identically from the same seed.

After the storm, each shard takes PR 8's **exact** audit: final crash,
:func:`~repro.bufferpool.recovery.recover`, then
:func:`~repro.bufferpool.recovery.audit_committed` with the full-trace
write-count ledger over the whole page space — zero lost updates *and*
zero phantom redo, per shard, cluster-wide.

This module is the sanctioned home of direct replica mutation: the
source census (``tests/test_source_census.py``) fails on any other code
writing to a replica stack without going through the WAL-apply path here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bufferpool.recovery import (
    CrashImage,
    audit_committed,
    recover,
    simulate_crash,
    write_ledger,
)
from repro.bufferpool.stats import BufferStats
from repro.bufferpool.wal import WriteAheadLog
from repro.cluster.engine import (
    _assemble,
    _execute_jobs,
    build_router,
    build_shard_stack,
)
from repro.engine.executor import replay
from repro.engine.metrics import RunMetrics
from repro.errors import NodeFailure
from repro.faults.nodes import NodeFault
from repro.storage.clock import VirtualClock, tick_at, to_ticks, to_us
from repro.storage.device import DeviceStats, SimulatedSSD
from repro.storage.ftl import FtlCounters

__all__ = [
    "REPLICATION_COMMIT_EVERY",
    "FailoverEvent",
    "ShardReplicationReport",
    "ReplicationSummary",
    "ReplicatedShardResult",
    "run_replicated_cluster",
]

#: Group-commit boundary (accesses between WAL flush+ship rounds) when
#: the config's ``options.commit_every_ops`` is 0 — replication is
#: meaningless without commit boundaries, so the engine supplies one.
REPLICATION_COMMIT_EVERY = 64


@dataclass(frozen=True)
class FailoverEvent:
    """One completed failover: who died, who took over, what it cost."""

    shard: int
    failed_node: int
    promoted_node: int
    #: Per-shard failover ordinal (1 for the shard's first failover).
    #: The cluster-level router epoch is assembled from these in shard
    #: order by :func:`run_replicated_cluster`.
    ordinal: int
    #: Group virtual time when the primary's crash was detected.
    virtual_time_us: float
    #: Virtual cost of the promotion (verify + shipped-tail drain) on
    #: the new primary's clock.
    failover_latency_us: float
    #: Uncommitted in-flight accesses that died with the old primary and
    #: were replayed on the new one.
    retried_accesses: int
    #: Replicas that died *during this promotion* before a live
    #: candidate was found (the double-failure count).
    candidates_lost: int = 0


@dataclass(frozen=True)
class ShardReplicationReport:
    """One shard group's complete failover history and audit verdict."""

    shard: int
    replication_factor: int
    commit_every: int
    failovers: tuple[FailoverEvent, ...]
    #: Total node deaths (primary crashes + replica deaths + candidates
    #: lost during promotion).
    node_crashes: int
    rejoins: int
    #: Serve attempts: every access of the subtrace plus every retry.
    attempted_accesses: int
    retried_accesses: int
    final_primary: int
    #: Redo records forwarded to replicas over the whole run (counted
    #: per receiving replica).
    shipped_records: int
    #: Exact PR 8 audit of the final primary after crash + recover.
    committed_updates: int
    lost_updates: int
    phantom_pages: int
    #: Durable page images of each promoted node right after promotion,
    #: as ``(committed_accesses, node, ((page, payload), ...))`` — only
    #: captured when the config asks (the divergence battery's probe).
    promotion_images: tuple[
        tuple[int, int, tuple[tuple[int, object], ...]], ...
    ] = ()

    @property
    def availability(self) -> float:
        """Fraction of serve attempts not wasted on a dead primary."""
        if self.attempted_accesses == 0:
            return 1.0
        return 1.0 - self.retried_accesses / self.attempted_accesses

    @property
    def audit_ok(self) -> bool:
        return self.lost_updates == 0 and self.phantom_pages == 0


@dataclass(frozen=True)
class ReplicationSummary:
    """Cluster-wide roll-up of the per-shard replication reports."""

    replication_factor: int
    per_shard: tuple[ShardReplicationReport, ...]
    #: Router epoch after applying every failover remap in shard order
    #: (0 = no failovers anywhere).
    final_epoch: int
    #: Node currently serving each shard (index = shard id).
    final_primaries: tuple[int, ...]

    @property
    def failovers(self) -> int:
        return sum(len(report.failovers) for report in self.per_shard)

    @property
    def node_crashes(self) -> int:
        return sum(report.node_crashes for report in self.per_shard)

    @property
    def rejoins(self) -> int:
        return sum(report.rejoins for report in self.per_shard)

    @property
    def retried_accesses(self) -> int:
        return sum(report.retried_accesses for report in self.per_shard)

    @property
    def attempted_accesses(self) -> int:
        return sum(report.attempted_accesses for report in self.per_shard)

    @property
    def availability(self) -> float:
        attempted = self.attempted_accesses
        if attempted == 0:
            return 1.0
        return 1.0 - self.retried_accesses / attempted

    @property
    def failover_latencies_us(self) -> tuple[float, ...]:
        return tuple(
            event.failover_latency_us
            for report in self.per_shard
            for event in report.failovers
        )

    @property
    def max_failover_latency_us(self) -> float:
        return max(self.failover_latencies_us, default=0.0)

    @property
    def lost_updates(self) -> int:
        return sum(report.lost_updates for report in self.per_shard)

    @property
    def phantom_pages(self) -> int:
        return sum(report.phantom_pages for report in self.per_shard)

    @property
    def ok(self) -> bool:
        return all(report.audit_ok for report in self.per_shard)


@dataclass(frozen=True)
class ReplicatedShardResult:
    """What one replicated shard replay produced (duck-compatible with
    :class:`repro.cluster.engine.ShardResult` for the metrics merge)."""

    shard: int
    ops: int
    metrics: RunMetrics
    replay_wall_s: float
    report: ShardReplicationReport


class _Shipment:
    """What one push carries: the redo images of a stretch of the primary's
    durable log (``WriteAheadLog.redo_since``), packed once, whoever
    receives it."""

    def __init__(self, pages: list, payloads: list) -> None:
        #: Parallel columns in log order: what the receiver re-logs.
        self.pages, self.payloads = pages, payloads
        #: Last image per page: what the receiver's device is written with.
        self.images = dict(zip(pages, payloads))


class _GroupNode:
    """One member of a replica group: a full stack plus group state."""

    def __init__(self, node_id: int, config, shard: int) -> None:
        self.node_id = node_id
        self.config = config
        self.shard = shard
        self.manager = build_shard_stack(config, shard, with_wal=True)
        self.alive = True
        #: Last own-WAL LSN whose records have been shipped (primary
        #: bookkeeping; replicas receive, they do not ship).
        self.shipped_lsn = 0
        #: Group-commit sequence this node has applied — the
        #: "most-caught-up" promotion order key.
        self.applied_seq = 0
        #: Committed-access threshold at which this (dead) node rejoins.
        self.rejoin_at: int | None = None
        #: Buffer stats frozen at crash time (``simulate_crash`` bricks
        #: the manager but the group still owes its serving segment to
        #: the shard metrics).
        self.frozen_stats: BufferStats | None = None
        #: Own-clock tick mark when this node started serving.
        self.serve_start_ticks = 0

    @property
    def device(self) -> SimulatedSSD:
        return self.manager.device

    @property
    def wal(self) -> WriteAheadLog:
        wal = self.manager.wal
        assert wal is not None  # group members are built with_wal=True
        return wal

    @property
    def clock(self) -> VirtualClock:
        return self.device.clock

    def rebuild(self) -> None:
        """Fresh empty stack for a rejoining node (its memory, device
        contents, and log died with the crash; anti-entropy refills it)."""
        self.manager = build_shard_stack(
            self.config, self.shard, with_wal=True
        )
        self.shipped_lsn = 0
        self.frozen_stats = None

    def apply(self, shipment: _Shipment) -> None:
        """Receive one shipment: log it (the replica's WAL is the
        promotion source of truth), flush, write the images as one batch."""
        wal = self.wal
        wal.append_batch(shipment.pages, shipment.payloads)
        wal.flush()
        self.device.write_batch(shipment.images)


class _ReplicaGroup:
    """The in-worker failover state machine for one shard."""

    def __init__(self, config, shard: int,
                 faults: tuple[NodeFault, ...]) -> None:
        self.config = config
        self.shard = shard
        self.nodes = [
            _GroupNode(node_id, config, shard)
            for node_id in range(config.replication_factor + 1)
        ]
        self.primary = self.nodes[0]
        self.primary.serve_start_ticks = self.primary.clock.ticks
        self.pending = list(faults)
        self.seq = 0
        self.group_elapsed_ticks = 0
        self.crashes = 0
        self.rejoins = 0
        self.shipped_records = 0
        self.failovers: list[FailoverEvent] = []
        self.promotion_images: list[
            tuple[int, int, tuple[tuple[int, object], ...]]
        ] = []
        #: Nodes that served as primary, in serving order (the shard's
        #: metrics are the sum of their stacks' work).
        self.served = [self.primary]

    # ---------------------------------------------------------- fault plan

    def _fault_due(
        self, node: _GroupNode, progress: int, time_us: float, horizon: int
    ) -> tuple[NodeFault | None, int, int | None]:
        """``node``'s first pending fault due at ``progress``/``time_us``,
        else ``None``, the index (at most ``horizon``) before which none
        can fire — its next ``crash_at_access`` — and the tick from which
        a pending timed fault fires (``None``: none is pending)."""
        deadline = None
        for fault in self.pending:
            if fault.node != node.node_id:
                continue
            if fault.crash_at_access is not None:
                if progress >= fault.crash_at_access:
                    return fault, progress, None
                horizon = min(horizon, fault.crash_at_access)
            elif time_us >= fault.crash_at_us:
                return fault, progress, None
            else:
                due = tick_at(fault.crash_at_us)
                deadline = due if deadline is None else min(deadline, due)
        return None, horizon, deadline

    def _kill(self, node: _GroupNode, fault: NodeFault,
              committed: int) -> None:
        """Apply one fault: crash the stack, schedule any rejoin."""
        self.pending.remove(fault)
        node.frozen_stats = node.manager.stats.copy()
        if node.manager.wal is not None and node.manager.table is not None:
            simulate_crash(node.manager)
        node.alive = False
        self.crashes += 1
        if fault.rejoin_after_accesses is not None:
            node.rejoin_at = committed + fault.rejoin_after_accesses

    # ------------------------------------------------------------ shipping

    def commit(self, committed_end: int) -> None:
        """Group commit: flush, push the new durable records to every
        live replica as one shipment, then process replica deaths and
        rejoins due at this boundary."""
        primary = self.primary
        wal = primary.wal
        wal.flush()
        shipment = _Shipment(*wal.redo_since(primary.shipped_lsn))
        primary.shipped_lsn = wal.durable_lsn
        self.seq += 1
        primary.applied_seq = self.seq
        max_apply_ticks = 0
        for node in self.nodes:
            if node is primary or not node.alive:
                continue
            apply_start = node.clock.ticks
            node.apply(shipment)
            node.applied_seq = self.seq
            max_apply_ticks = max(max_apply_ticks, node.clock.ticks - apply_start)
            self.shipped_records += len(shipment.pages)
        # Synchronous replication: the commit acknowledges once the slowest
        # replica has applied; the wait is primary (= client-visible) time.
        primary.clock.ticks += max_apply_ticks
        for node in self.nodes:
            if node is primary or not node.alive:
                continue
            fault = self._fault_due(node, committed_end,
                                    primary.clock.now_us, committed_end)[0]
            if fault is not None:
                self._kill(node, fault, committed_end)
        for node in self.nodes:
            if node.alive or node.rejoin_at is None:
                continue
            if committed_end >= node.rejoin_at:
                self._rejoin(node)

    def _rejoin(self, node: _GroupNode) -> None:
        """Anti-entropy catch-up: rebuild the node empty and push it the
        primary's whole durable history as one shipment."""
        node.rebuild()
        node.apply(_Shipment(*self.primary.wal.redo_since(0)))
        node.alive = True
        node.rejoin_at = None
        node.applied_seq = self.seq
        self.rejoins += 1

    # ------------------------------------------------------------ failover

    def fail_primary(self, fault: NodeFault, committed: int,
                     retried: int) -> None:
        """The primary died: crash it, promote the most-caught-up live
        replica (skipping candidates whose own fault fires during the
        promotion), remap, and resume from the commit boundary.

        Raises :class:`~repro.errors.NodeFailure` when the group has no
        live replica left — the deterministic end of the shard.
        """
        primary = self.primary
        crash_time_us = primary.clock.now_us
        self.close_segment()
        failed_node = primary.node_id
        self._kill(primary, fault, committed)
        candidates = sorted(
            (node for node in self.nodes if node.alive),
            key=lambda node: (-node.applied_seq, node.node_id),
        )
        candidates_lost = 0
        for candidate in candidates:
            # A candidate's own crash point may lie inside the in-flight
            # window (commit boundaries are when replica faults normally
            # fire, and the window never reached one): such a candidate
            # dies *during its promotion* — the double-failure case.
            candidate_fault = self._fault_due(
                candidate, committed + retried, crash_time_us, committed
            )[0]
            if candidate_fault is not None:
                # Double failure: the chosen replica dies during its own
                # promotion; fall through to the next one.
                self._kill(candidate, candidate_fault, committed)
                candidates_lost += 1
                continue
            latency_us = self._promote(candidate)
            self.failovers.append(FailoverEvent(
                shard=self.shard,
                failed_node=failed_node,
                promoted_node=candidate.node_id,
                ordinal=len(self.failovers) + 1,
                virtual_time_us=crash_time_us,
                failover_latency_us=latency_us,
                retried_accesses=retried,
                candidates_lost=candidates_lost,
            ))
            if self.config.capture_promotion_images:
                self.promotion_images.append((
                    committed,
                    candidate.node_id,
                    self._durable_images(candidate),
                ))
            return
        raise NodeFailure(
            shard=self.shard,
            node=failed_node,
            virtual_time_us=crash_time_us,
            cause=(
                f"{fault.describe()} with no live replica to fail over "
                f"to ({candidates_lost} candidate(s) lost during "
                f"promotion)"
            ),
            partial_metrics=None,  # filled by the worker, which owns them
        )

    def _promote(self, candidate: _GroupNode) -> float:
        """Drain the candidate's shipped-WAL tail via the PR 8 recovery
        path and install it as primary; returns the virtual cost."""
        promote_start = candidate.clock.ticks
        image = CrashImage(
            device=candidate.device, wal=candidate.wal,
            lost_dirty_pages=(),
        )
        # verify_durable + redo of every durable shipped record:
        # the replica's device already holds the applied prefix, so the
        # drain is idempotent — which is exactly the point of reusing
        # the recovery path instead of trusting the apply loop.
        recover(image)
        latency_ticks = candidate.clock.ticks - promote_start
        self.group_elapsed_ticks += latency_ticks
        # All live members hold the identical committed prefix, so the
        # new primary's durable log is already fully shipped.
        candidate.shipped_lsn = candidate.wal.durable_lsn
        self.primary = candidate
        self.served.append(candidate)
        candidate.serve_start_ticks = candidate.clock.ticks
        return to_us(latency_ticks)

    def _durable_images(
        self, node: _GroupNode
    ) -> tuple[tuple[int, object], ...]:
        device = node.device
        images = []
        for page in range(self.config.num_pages):
            payload = device.peek(page)
            if payload != 0:
                images.append((page, payload))
        return tuple(images)

    # ------------------------------------------------------------- metrics

    def close_segment(self) -> None:
        """Bank the primary's serving time since its start mark."""
        primary, now = self.primary, self.primary.clock.ticks
        self.group_elapsed_ticks += now - primary.serve_start_ticks
        primary.serve_start_ticks = now

    def shard_metrics(self, label: str, ops: int, cpu_ticks: int) -> RunMetrics:
        """The shard's serving-path metrics: the summed work of every
        stack that served as primary.

        A promoted node's counters include the replication traffic its
        device absorbed while it was a replica — that I/O is part of how
        the serving stack got its state, exactly like recovery I/O.
        Replicas that never served stay out of the serving metrics; their
        shipping totals live in the :class:`ShardReplicationReport`.
        """
        buffer = BufferStats()
        device = DeviceStats()
        ftl: FtlCounters | None = FtlCounters()
        wal_pages = 0
        io_ticks = 0
        for node in self.served:
            buffer.merge(
                node.frozen_stats if node.frozen_stats is not None
                else node.manager.stats
            )
            node_device = node.device.stats
            device.merge(node_device)
            if ftl is not None:
                if node.device.ftl is None:
                    ftl = None
                else:
                    ftl.merge(node.device.ftl.counters)
            wal_pages += node.wal.pages_written
            io_ticks += node_device.read_ticks + node_device.write_ticks
        return RunMetrics(
            label=label,
            elapsed_us=to_us(self.group_elapsed_ticks),
            ops=ops,
            buffer=buffer,
            device=device,
            ftl=ftl,
            wal_pages_written=wal_pages,
            io_ticks=io_ticks,
            cpu_ticks=cpu_ticks,
        )


def _replay_replicated_shard(job) -> ReplicatedShardResult:
    """Worker-side entry point for one replica group's failover replay.

    Pure function of the job, like the plain shard worker: stacks,
    faults, and the whole failover history derive from the job's config
    and subtrace, nothing is read from or stored in process state.
    (The worker-count identity tests hold worker entry points to that
    contract.)
    """
    config = job.config
    assert job.pages is not None and job.writes is not None
    pages, writes = job.pages, job.writes
    total = len(pages)
    commit_every = (
        config.options.commit_every_ops or REPLICATION_COMMIT_EVERY
    )
    op_ticks = to_ticks(config.options.cpu_us_per_op)
    plan = config.node_faults
    faults = plan.faults_for(job.shard) if plan is not None else ()
    label = f"{config.label}/shard{job.shard}"

    start = time.perf_counter()
    group = _ReplicaGroup(config, job.shard, faults)
    committed = 0
    executed = 0
    retried_total = 0
    while committed < total:
        boundary = min(committed + commit_every, total)
        cursor = committed
        due: NodeFault | None = None
        primary = group.primary
        while cursor < boundary:
            # Replay up to where the plan can next fire on the primary: an
            # index, or the tick a timed fault is due at.
            due, end, until = group._fault_due(
                primary, cursor, primary.clock.now_us, boundary
            )
            if due is not None:
                break
            ran = replay(primary.manager, pages[cursor:end], writes[cursor:end],
                         op_ticks, until)
            executed += ran
            cursor += ran
        if due is not None:
            retried = cursor - committed
            retried_total += retried
            try:
                group.fail_primary(due, committed=committed, retried=retried)
            except NodeFailure as failure:
                # fail_primary already closed the dead primary's serving
                # segment, so the partial metrics are boundary-accurate.
                partial = group.shard_metrics(
                    label, ops=committed,
                    cpu_ticks=op_ticks * executed,
                )
                raise NodeFailure(
                    shard=failure.shard,
                    node=failure.node,
                    virtual_time_us=failure.virtual_time_us,
                    cause=failure.cause,
                    partial_metrics=partial,
                ) from None
            continue  # retry the uncommitted tail on the new primary
        group.commit(boundary)
        committed = boundary
    group.close_segment()

    # The storm is over: take the exact PR 8 audit on the final primary.
    # Ledger = full-subtrace write counts (everything is committed by the
    # final boundary flush); exact mode over the whole page space proves
    # zero lost updates *and* zero phantom redo.
    ledger = write_ledger(pages, writes)
    final_primary = group.primary
    metrics = group.shard_metrics(
        label, ops=total, cpu_ticks=op_ticks * executed
    )
    image = simulate_crash(final_primary.manager)
    recover(image)
    audit = audit_committed(
        image, None, ledger, exact=True, pages=range(config.num_pages)
    )
    wall_s = time.perf_counter() - start

    report = ShardReplicationReport(
        shard=job.shard,
        replication_factor=config.replication_factor,
        commit_every=commit_every,
        failovers=tuple(group.failovers),
        node_crashes=group.crashes,
        rejoins=group.rejoins,
        attempted_accesses=total + retried_total,
        retried_accesses=retried_total,
        final_primary=final_primary.node_id,
        shipped_records=group.shipped_records,
        committed_updates=audit.committed_updates,
        lost_updates=audit.lost_updates,
        phantom_pages=audit.phantom_pages,
        promotion_images=tuple(group.promotion_images),
    )
    return ReplicatedShardResult(
        shard=job.shard,
        ops=total,
        metrics=metrics,
        replay_wall_s=wall_s,
        report=report,
    )


def run_replicated_cluster(config, trace, workers=None, label=None):
    """Replicated counterpart of :func:`repro.cluster.engine.run_cluster`.

    Splits the trace with the epoch-0 router, replays every shard's
    replica group (reusing the engine's job fan-out and retry
    machinery), merges metrics exactly as the unreplicated path does,
    then replays the failover history through the epoch-stamped router
    remaps — the returned :class:`ReplicationSummary`'s ``final_epoch``
    and ``final_primaries`` are read off the remapped router, so the
    router API and the replication engine cannot silently disagree
    about who serves what.
    """
    router = build_router(config)
    results = _execute_jobs(
        config, router, trace, workers, worker=_replay_replicated_shard
    )
    metrics = _assemble(config, results, label, trace.name)
    ordered = sorted(results, key=lambda result: result.shard)
    for result in ordered:
        for event in result.report.failovers:
            router = router.with_failover(event.shard, event.promoted_node)
    metrics.replication = ReplicationSummary(
        replication_factor=config.replication_factor,
        per_shard=tuple(result.report for result in ordered),
        final_epoch=router.epoch,
        final_primaries=tuple(
            router.node_of(shard) for shard in range(config.num_shards)
        ),
    )
    return metrics
