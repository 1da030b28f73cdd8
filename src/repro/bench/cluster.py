"""Cluster bench: shards x placement x policy sweep.

The aggregate-throughput claim this bench records: splitting one trace
across N independent shard nodes multiplies wall-clock replay throughput
by roughly the shard count, because each shard replays its subtrace on
the PR 6 turbo path with a private bufferpool and no coordination.  The
sweep replays the same MS trace through every (policy, shard count,
placement) cell and reports two numbers per cell:

* **aggregate accesses/second** under the makespan model — total ops
  over the slowest shard's in-worker replay wall (what N true cores
  would sustain);
* the **(cut, imbalance) Pareto point** of the cell's placement on the
  trace's co-access graph — hash placement balances load but cuts
  locality edges blindly; the greedy districting partitioner trades a
  bounded imbalance for strictly fewer cut edges.

The bench asserts the placement claim (locality cut <= hash cut at every
shard count, strict at the headline shard count) and exits non-zero when
it fails.

Everything is deterministic: seeded trace, deterministic router and
partitioner, and merged metrics that are byte-identical at any worker
count.  ``python -m repro cluster [--smoke]`` prints the tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.bench.report import format_table
from repro.cluster.engine import ClusterConfig, ClusterMetrics, run_cluster
from repro.cluster.placement import (
    CoAccessGraph,
    coaccess_from_trace,
    hash_placement,
    imbalance,
    locality_placement,
    placement_report,
)
from repro.storage.profiles import PCIE_SSD, DeviceProfile
from repro.workloads.synthetic import MS, generate_trace

__all__ = [
    "ClusterCell",
    "ClusterSweepReport",
    "DEFAULT_SHARDS",
    "DEFAULT_POLICIES",
    "run_cell",
    "run_sweep",
    "smoke_grid",
    "format_report",
]

DEFAULT_SHARDS = (1, 2, 4)
DEFAULT_POLICIES = ("lru", "clock", "cflru")
DEFAULT_PLACEMENTS = ("hash", "locality")

#: The shard count whose locality-vs-hash cut must improve *strictly*.
HEADLINE_SHARDS = 4


@dataclass(frozen=True)
class ClusterCell:
    """One (policy, variant, shards, placement) cluster replay."""

    policy: str
    variant: str
    shards: int
    placement: str
    ops: int
    aggregate_accesses_per_sec: float
    makespan_wall_s: float
    ops_imbalance: float
    cut_edges: float
    cut_fraction: float
    load_imbalance: float
    elapsed_us: float
    hit_ratio: float

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}/s{self.shards}/{self.placement}"


@dataclass(frozen=True)
class ClusterSweepReport:
    """Every cell of one sweep plus the placement-claim verdict."""

    seed: int
    num_pages: int
    num_ops: int
    cells: tuple[ClusterCell, ...]

    def cell(self, policy: str, variant: str, shards: int,
             placement: str) -> ClusterCell | None:
        for candidate in self.cells:
            if (candidate.policy, candidate.variant, candidate.shards,
                    candidate.placement) == (policy, variant, shards,
                                             placement):
                return candidate
        return None

    @property
    def placement_failures(self) -> list[str]:
        """Cells where locality placement cut MORE edges than hash."""
        failures = []
        for cell in self.cells:
            if cell.placement != "locality" or cell.shards == 1:
                continue
            hash_cell = self.cell(cell.policy, cell.variant, cell.shards,
                                  "hash")
            if hash_cell is None:
                continue
            if cell.cut_edges > hash_cell.cut_edges:
                failures.append(
                    f"{cell.label}: locality cut {cell.cut_edges:.0f} > "
                    f"hash cut {hash_cell.cut_edges:.0f}"
                )
            elif (cell.shards == HEADLINE_SHARDS
                    and cell.cut_edges >= hash_cell.cut_edges):
                failures.append(
                    f"{cell.label}: locality cut {cell.cut_edges:.0f} did "
                    f"not strictly beat hash cut {hash_cell.cut_edges:.0f}"
                )
        return failures

    @property
    def ok(self) -> bool:
        return not self.placement_failures


def _placement_assignment(
    graph: CoAccessGraph, num_shards: int, placement: str
) -> list[int]:
    if placement == "hash":
        return hash_placement(graph.num_pages, num_shards)
    if placement == "locality":
        # Equal-imbalance comparison: the partitioner gets exactly the
        # slack hash placement spends on this graph (at least the 10%
        # default), so the cut numbers trade on locality alone.
        hash_assignment = hash_placement(graph.num_pages, num_shards)
        slack = max(
            0.10, imbalance(graph, hash_assignment, num_shards) - 1.0
        )
        return locality_placement(graph, num_shards, balance_slack=slack)
    raise ValueError(f"unknown placement scheme: {placement!r}")


def run_cell(
    policy: str,
    variant: str,
    num_shards: int,
    placement: str,
    trace,
    graph: CoAccessGraph,
    profile: DeviceProfile = PCIE_SSD,
    workers: int | None = 1,
) -> tuple[ClusterCell, ClusterMetrics]:
    """Replay one sweep cell and score its placement on the graph."""
    assignment = _placement_assignment(graph, num_shards, placement)
    config = ClusterConfig(
        profile=profile,
        policy=policy,
        variant=variant,
        num_pages=graph.num_pages,
        num_shards=num_shards,
        # Single-shard hash and locality coincide; ClusterConfig models
        # the distinction, the sweep only runs the hash spelling for s=1.
        placement="locality" if placement == "locality" else "hash",
        assignment=tuple(assignment) if placement == "locality" else None,
    )
    metrics = run_cluster(config, trace, workers=workers)
    score = placement_report(graph, assignment, num_shards)
    cell = ClusterCell(
        policy=policy,
        variant=variant,
        shards=num_shards,
        placement=placement,
        ops=metrics.ops,
        aggregate_accesses_per_sec=metrics.aggregate_accesses_per_sec,
        makespan_wall_s=max(metrics.replay_wall_s),
        ops_imbalance=metrics.ops_imbalance,
        cut_edges=score["cut_edges"],
        cut_fraction=score["cut_fraction"],
        load_imbalance=score["imbalance"],
        elapsed_us=metrics.merged.elapsed_us,
        hit_ratio=metrics.merged.buffer.hit_ratio,
    )
    return cell, metrics


def run_sweep(
    shards: Sequence[int] = DEFAULT_SHARDS,
    placements: Sequence[str] = DEFAULT_PLACEMENTS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    variant: str = "baseline",
    num_pages: int = 20_000,
    num_ops: int = 30_000,
    seed: int = 42,
    profile: DeviceProfile = PCIE_SSD,
    workers: int | None = 1,
) -> ClusterSweepReport:
    """The full grid: each policy through every shards x placement cell."""
    trace = generate_trace(MS, num_pages, num_ops, seed=seed)
    graph = coaccess_from_trace(trace.pages, num_pages)
    cells = []
    for policy in policies:
        for num_shards in shards:
            for placement in placements:
                if num_shards == 1 and placement != "hash":
                    continue  # one shard: every placement is identical
                cell, _ = run_cell(
                    policy, variant, num_shards, placement, trace, graph,
                    profile=profile, workers=workers,
                )
                cells.append(cell)
    return ClusterSweepReport(
        seed=seed, num_pages=num_pages, num_ops=num_ops, cells=tuple(cells)
    )


def smoke_grid(seed: int = 42) -> ClusterSweepReport:
    """The CI-sized sweep: one policy, small trace, full shard grid."""
    return run_sweep(
        policies=("lru",), num_pages=4_000, num_ops=6_000, seed=seed
    )


def format_report(report: ClusterSweepReport) -> str:
    """Render the throughput table and the imbalance-vs-cut Pareto table."""
    rows = []
    for cell in report.cells:
        rows.append([
            cell.label,
            f"{cell.aggregate_accesses_per_sec:,.0f}",
            f"{cell.makespan_wall_s * 1e3:.2f}",
            f"{cell.ops_imbalance:.3f}",
            f"{cell.hit_ratio:.2%}",
        ])
    throughput = format_table(
        ["cell", "aggregate acc/s", "makespan (ms)", "ops imbal",
         "hit ratio"],
        rows,
        title=(f"Cluster sweep (seed={report.seed}, "
               f"{report.num_ops} ops over {report.num_pages} pages)"),
    )
    pareto_rows = []
    seen = set()
    for cell in report.cells:
        key = (cell.shards, cell.placement)
        if key in seen or cell.shards == 1:
            continue  # placement scores are policy-independent
        seen.add(key)
        pareto_rows.append([
            f"s{cell.shards}/{cell.placement}",
            f"{cell.cut_edges:,.0f}",
            f"{cell.cut_fraction:.2%}",
            f"{cell.load_imbalance:.3f}",
        ])
    pareto = format_table(
        ["placement", "cut edges", "cut fraction", "load imbal"],
        pareto_rows,
        title="Placement Pareto points (co-access graph)",
    )
    return f"{throughput}\n\n{pareto}"
