"""Failover bench: node-failure rate x replication factor durability sweep.

The cluster-level robustness claim this bench asserts: with ``R``
replicas per shard and synchronous WAL shipping at group-commit
boundaries, the cluster loses **zero committed updates and replays zero
phantom redo** through an arbitrary seeded storm of node crashes,
permanent losses and delayed rejoins — for baseline and ACE stacks
alike — while availability degrades only by the in-flight windows that
died with a primary.

Every cell replays the same MS trace through a replicated cluster under
a deterministic :class:`~repro.faults.nodes.NodeFaultPlan` and reports:

* **failovers / crashes / rejoins** — the storm the group absorbed;
* **availability** — fraction of serve attempts not wasted on a dead
  primary (retried in-flight accesses are the deficit);
* **failover latency** — virtual µs the promotion drain cost (PR 8's
  ``recover`` over the replica's shipped WAL);
* **lost / phantom** — the PR 8 *exact* ``audit_committed`` verdict,
  taken per shard over the whole page space after a final crash +
  recover of every final primary.

Two scenario cells ride every sweep on top of the rate grid: a
**mid-ACE-batch** primary crash (crash point inside a commit window of
an ACE stack, dirty batched write-backs in flight) and a **double
failure** (R=2; the most-caught-up replica dies during its own
promotion and the group falls through to the second replica).

``python -m repro failover [--smoke]`` prints :func:`format_report` and
exits non-zero if any cell lost a committed update, replayed a phantom, or a
scenario cell failed to exercise its scenario.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bench.report import format_table
from repro.cluster.engine import ClusterConfig, run_cluster
from repro.engine.executor import ExecutionOptions
from repro.errors import ClusterReplayError
from repro.faults.nodes import NodeFault, NodeFaultPlan
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace

__all__ = [
    "FailoverCell",
    "FailoverSweepReport",
    "DEFAULT_POLICIES",
    "DEFAULT_RATES",
    "NUM_SHARDS",
    "REPLICATION",
    "VARIANTS",
    "run_cell",
    "run_sweep",
    "smoke_grid",
    "format_report",
]

DEFAULT_POLICIES = ("lru", "clock")
DEFAULT_RATES = (0.0, 0.5, 1.0)
VARIANTS = ("baseline", "ace")
REPLICATION = (1, 2)

#: Shards per cluster in every cell.
NUM_SHARDS = 2

#: Group-commit boundary for every sweep cell (also the granularity the
#: availability metric's retry windows are bounded by).
COMMIT_EVERY = 32

_OPTIONS = ExecutionOptions(cpu_us_per_op=2.0, commit_every_ops=COMMIT_EVERY)


@dataclass(frozen=True)
class FailoverCell:
    """One (policy, variant, R, failure-rate) replicated cluster replay."""

    policy: str
    variant: str
    replication: int
    rate: float
    scenario: str  # "" for rate-grid cells
    ops: int
    failovers: int
    node_crashes: int
    rejoins: int
    candidates_lost: int
    availability: float
    max_failover_latency_us: float
    retried_accesses: int
    lost_updates: int
    phantom_pages: int
    final_epoch: int
    error: str = ""

    @property
    def label(self) -> str:
        tag = self.scenario if self.scenario else f"f{self.rate:g}"
        return f"{self.policy}/{self.variant}/r{self.replication}/{tag}"

    @property
    def ok(self) -> bool:
        if self.error:
            return False
        if self.lost_updates or self.phantom_pages:
            return False
        if self.scenario == "mid-ace-batch" and self.failovers < 1:
            return False
        if self.scenario == "double-failure" and self.candidates_lost < 1:
            return False
        return True


@dataclass(frozen=True)
class FailoverSweepReport:
    """Every cell of one failover sweep."""

    seed: int
    num_pages: int
    num_ops: int
    cells: tuple[FailoverCell, ...]

    @property
    def failures(self) -> list[str]:
        notes = []
        for cell in self.cells:
            if cell.ok:
                continue
            if cell.error:
                notes.append(f"{cell.label}: {cell.error}")
            elif cell.lost_updates or cell.phantom_pages:
                notes.append(
                    f"{cell.label}: lost {cell.lost_updates} committed "
                    f"update(s), {cell.phantom_pages} phantom page(s)"
                )
            else:
                notes.append(
                    f"{cell.label}: scenario {cell.scenario!r} did not "
                    "exercise its failure shape"
                )
        return notes

    @property
    def ok(self) -> bool:
        return not self.failures


def _cell_from_metrics(
    policy: str, variant: str, replication: int, rate: float,
    scenario: str, metrics,
) -> FailoverCell:
    summary = metrics.replication
    return FailoverCell(
        policy=policy,
        variant=variant,
        replication=replication,
        rate=rate,
        scenario=scenario,
        ops=metrics.ops,
        failovers=summary.failovers,
        node_crashes=summary.node_crashes,
        rejoins=summary.rejoins,
        candidates_lost=sum(
            event.candidates_lost
            for report in summary.per_shard
            for event in report.failovers
        ),
        availability=summary.availability,
        max_failover_latency_us=summary.max_failover_latency_us,
        retried_accesses=summary.retried_accesses,
        lost_updates=summary.lost_updates,
        phantom_pages=summary.phantom_pages,
        final_epoch=summary.final_epoch,
    )


def run_cell(
    policy: str,
    variant: str,
    replication: int,
    plan: NodeFaultPlan,
    trace,
    num_pages: int,
    rate: float = 0.0,
    scenario: str = "",
    workers: int | None = 1,
) -> FailoverCell:
    """Replay one replicated cell under ``plan`` and audit it."""
    config = ClusterConfig(
        profile=PCIE_SSD,
        policy=policy,
        variant=variant,
        num_pages=num_pages,
        num_shards=NUM_SHARDS,
        options=_OPTIONS,
        replication_factor=replication,
        node_faults=plan if not plan.is_null else None,
    )
    try:
        metrics = run_cluster(config, trace, workers=workers)
    except ClusterReplayError as exc:
        # A stranded replica group (structured NodeFailure) is a cell
        # failure, reported in the table rather than unwinding the sweep.
        return FailoverCell(
            policy=policy, variant=variant, replication=replication,
            rate=rate, scenario=scenario, ops=0, failovers=0,
            node_crashes=0, rejoins=0, candidates_lost=0,
            availability=0.0, max_failover_latency_us=0.0,
            retried_accesses=0, lost_updates=0, phantom_pages=0,
            final_epoch=0, error=str(exc),
        )
    return _cell_from_metrics(
        policy, variant, replication, rate, scenario, metrics
    )


def _scenario_cells(
    trace, num_pages: int, seed: int, workers: int | None,
) -> list[FailoverCell]:
    """The two mandatory failure shapes, as explicit fault lists."""
    per_shard = max(COMMIT_EVERY * 3, len(trace) // NUM_SHARDS)
    # Mid-ACE-batch: the crash point sits strictly inside a commit
    # window (not on a boundary), so the ACE stack dies with batched
    # write-backs and unflushed WAL records in flight.
    mid_batch = COMMIT_EVERY * 2 + COMMIT_EVERY // 2 + 1
    mid_ace = NodeFaultPlan(seed=seed, faults=(
        NodeFault(shard=0, node=0, crash_at_access=mid_batch),
    ))
    # Double failure: the replica that would be promoted has its own
    # crash point inside the same in-flight window, dies during the
    # promotion, and the group falls through to the second replica.
    double = NodeFaultPlan(seed=seed, faults=(
        NodeFault(shard=0, node=0, crash_at_access=mid_batch),
        NodeFault(shard=0, node=1, crash_at_access=mid_batch),
        NodeFault(shard=1, node=0,
                  crash_at_access=min(per_shard - 1, mid_batch * 2)),
    ))
    return [
        run_cell("lru", "ace", 1, mid_ace, trace, num_pages,
                 scenario="mid-ace-batch", workers=workers),
        run_cell("lru", "ace", 2, double, trace, num_pages,
                 scenario="double-failure", workers=workers),
    ]


def run_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    policies: Sequence[str] = DEFAULT_POLICIES,
    num_pages: int = 8_000,
    num_ops: int = 12_000,
    seed: int = 42,
    workers: int | None = 1,
) -> FailoverSweepReport:
    """The full grid plus the two scenario cells."""
    trace = generate_trace(MS, num_pages, num_ops, seed=seed)
    accesses_per_shard = max(2, num_ops // NUM_SHARDS)
    cells = []
    for policy in policies:
        for variant in VARIANTS:
            for factor in REPLICATION:
                for rate in rates:
                    plan = NodeFaultPlan.random(
                        num_shards=NUM_SHARDS,
                        replicas=factor,
                        failure_rate=rate,
                        accesses_per_shard=accesses_per_shard,
                        seed=seed + int(rate * 1000) + factor,
                    )
                    cells.append(run_cell(
                        policy, variant, factor, plan, trace,
                        num_pages, rate=rate, workers=workers,
                    ))
    cells.extend(_scenario_cells(trace, num_pages, seed, workers))
    return FailoverSweepReport(
        seed=seed, num_pages=num_pages, num_ops=num_ops, cells=tuple(cells),
    )


def smoke_grid(workers: int | None = 1) -> FailoverSweepReport:
    """The CI-sized sweep: one policy, both variants, small trace."""
    return run_sweep(
        rates=(1.0,),
        policies=("lru",),
        num_pages=3_000,
        num_ops=5_000,
        workers=workers,
    )


def format_report(report: FailoverSweepReport) -> str:
    """The ``failover`` verdict: the cell table, a ``FAIL`` line per failed
    cell and the closing summary line."""
    rows = []
    for cell in report.cells:
        rows.append([
            cell.label,
            str(cell.failovers),
            str(cell.node_crashes),
            str(cell.rejoins),
            f"{cell.availability:.4%}",
            f"{cell.max_failover_latency_us:,.0f}",
            str(cell.lost_updates),
            str(cell.phantom_pages),
            "ok" if cell.ok else "FAIL",
        ])
    lines = [format_table(
        ["cell", "failovers", "crashes", "rejoins", "availability",
         "max failover (us)", "lost", "phantom", "verdict"],
        rows,
        title=(f"Failover sweep (seed={report.seed}, {report.num_ops} ops "
               f"over {report.num_pages} pages, {NUM_SHARDS} "
               f"shards, commit every {COMMIT_EVERY})"),
    )]
    lines += [f"FAIL {failure}" for failure in report.failures]
    if report.ok:
        lines.append(
            f"all {len(report.cells)} cells swept; zero committed loss, "
            "zero phantom redo"
        )
    return "\n".join(lines)
