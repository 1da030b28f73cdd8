"""The traced run: per-layer metrics by proxy (P), differential (D), direct (M).

* **P** — spans from :mod:`perfbench.tracing` proxies while the public
  entry point replays one slice (pass 0: the layers as the executor calls
  them) and, for trace workloads, while the harness itself drives
  ``manager.access`` per request (pass 1: the manager's hit and miss cost).
* **D** — the wall of the *same slices* under two public configurations; the
  ratio or difference is the layer's cost.  Medians of ``D_PASSES`` passes.
* **M** — a public function timed directly over inputs from the slice.

Every metric in :data:`perfbench.metrics.PER_LAYER` is emitted on every
workload; a layer the workload does not exercise reports
:data:`~perfbench.metrics.NOT_EXERCISED`.
"""

from __future__ import annotations

import gc
import statistics
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import NamedTuple

import numpy as np

from repro.bench.runner import StackConfig, build_stack
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.table import make_table
from repro.cluster.engine import build_router
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.engine.executor import run_trace
from repro.engine.latency import LatencyRecorder
from repro.engine.metrics import RunMetrics
from repro.engine.serving import ServingConfig
from repro.faults import FaultPlan
from repro.policies.registry import make_policy
from repro.prefetch import CompositePrefetcher, NullPrefetcher
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.workloads.trace import Trace

from perfbench.metrics import NOT_EXERCISED, PER_LAYER
from perfbench.tracing import (
    TracedDevice,
    TracedPrefetcher,
    TracedWAL,
    Tracer,
    trace_manager,
)
from perfbench.workloads import (
    NUM_PAGES,
    OPTIONS,
    PROFILE,
    SPECS,
    Spec,
    cluster_config,
    make_run,
)

__all__ = ["Traced", "trace_layers", "TRACE_SCALE"]

#: Traced runs shrink the slices to 40 %: a span per request stays in
#: memory, and each differential needs its own warmed stack.  TPC-C keeps
#: its size, so that a checkpoint falls due inside the traced pass.
TRACE_SCALE = {"trace": 0.4, "tpcc": 1.0, "cluster": 0.4}
#: Untraced passes per side of a differential (the median is taken).
D_PASSES = 3
#: Calls per direct (M) measurement.
M_CALLS = 50_000

OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Traced:
    """What one traced run produced."""

    metrics: dict[str, float]
    spans_path: Path
    #: Units checked (passes, audits) and how many of them failed a check.
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


class _Session:
    """State shared by the steps of one traced run."""

    def __init__(self, spec: Spec, seed: int, scale: float) -> None:
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.tracer = Tracer()
        self.out = {name: NOT_EXERCISED for name, _, _ in PER_LAYER}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, label: str, failures: list[str]) -> None:
        """Record one checked unit and whatever it failed."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += [f"{label}: {failure}" for failure in failures]

    def make(self, spec: Spec | None = None, **variation):
        """A warmed run of ``spec`` (this workload's by default), unrecorded."""
        spec = spec or self.spec
        self.tracer.recording = False
        try:
            run = make_run(spec, self.seed, D_PASSES, self.scale, **variation)
            if spec.kind == "trace" and spec.warm_ops < spec.slice_ops:
                # A short warm pass leaves compulsory misses in the first
                # slices (``fit_hits``); layer costs are wanted at steady
                # state, so every slice is replayed once more, unrecorded.
                for index in range(len(run.slices)):
                    run.warm_metrics = run.execute(index)
                    run.account(run.warm_metrics)
            return run
        finally:
            self.tracer.recording = True

    def account(self, run, raw, label: str):
        result = run.account(raw)
        self.check(label, result.failures)
        return result

    def median_wall(self, run, label: str, execute=None) -> tuple[float, int]:
        """Median wall of ``D_PASSES`` untraced passes, and ops per pass.

        ``execute(index)`` replaces ``run.execute`` when a side of a
        differential calls the entry point with other keywords.
        """
        execute = execute or run.execute
        walls = []
        ops = 0
        for index in range(D_PASSES):
            gc.collect()
            start = perf_counter()
            raw = execute(index)
            walls.append(perf_counter() - start)
            ops = self.account(run, raw, f"{label} pass {index}").ops
        return statistics.median(walls), ops

    def traced_pass(self, run, slices: int = 1):
        """Pass 0: the public entry point over the first ``slices`` slices,
        under one root span.  Returns the last metrics, ops, wall seconds."""
        self.tracer.pass_id = 0
        gc.collect()
        ops = 0
        with self.tracer.span("engine.executor") as root:
            for index in range(slices):
                raw = run.execute(index)
                # Accounted inside the span (a few microseconds): TPC-C
                # batches must be accounted in the order they ran.
                ops += self.account(run, raw, f"traced pass {index}").ops
        return raw, ops, self.tracer.seconds(root)


def _build_traced_stack(config: StackConfig, tracer: Tracer) -> BufferPoolManager:
    """``repro.bench.runner.build_stack`` with the three proxies inserted."""
    clock = VirtualClock()
    base = SimulatedSSD(
        config.profile, num_pages=config.num_pages, clock=clock,
        with_ftl=config.with_ftl, over_provision=config.over_provision,
    )
    base.format_pages(range(config.num_pages))
    device = TracedDevice(base, tracer)
    capacity = config.pool_capacity
    policy = make_policy(config.policy, capacity)
    wal = TracedWAL(clock, tracer) if config.with_wal else None
    if config.variant == "baseline":
        manager = BufferPoolManager(capacity, policy, device, wal=wal)
    else:
        prefetching = config.variant == "ace+pf"
        manager = ACEBufferPoolManager(
            capacity, policy, device, wal=wal,
            config=ACEConfig.for_device(config.profile, prefetch_enabled=prefetching),
            prefetcher=(
                TracedPrefetcher(
                    CompositePrefetcher(max_page=config.num_pages), tracer
                )
                if prefetching else None
            ),
        )
    trace_manager(manager, tracer)
    return manager


# ------------------------------------------------------- direct (M) metrics


def _per_call_ns(call, arguments) -> float:
    """Mean wall of ``call(argument)`` over ``arguments`` (loop included)."""
    start = perf_counter_ns()
    for argument in arguments:
        call(argument)
    return (perf_counter_ns() - start) / len(arguments)


def _direct_metrics(pages: list[int], writes: list[bool], out: dict) -> None:
    """Table, policy, router and trace-materialisation costs."""
    sample = pages[:M_CALLS]
    capacity = int(NUM_PAGES * 0.06)
    distinct = list(dict.fromkeys(pages))
    resident, absent = distinct[:capacity], distinct[capacity : 2 * capacity]
    lookup = {}
    for backend in ("array", "dict"):
        table = make_table(NUM_PAGES, backend)
        for frame, page in enumerate(resident):
            table.insert(page, frame)
        lookup[backend] = _per_call_ns(table.lookup, sample)
        if backend == "array":
            start = perf_counter_ns()
            for frame, page in enumerate(absent):
                table.insert(page, frame)
                table.delete(page)
            out["bufferpool.table.insert_delete_ns"] = (
                perf_counter_ns() - start
            ) / max(1, len(absent))
    out["bufferpool.table.lookup_ns"] = lookup["array"]
    out["bufferpool.table.dict_over_array"] = lookup["dict"] / lookup["array"]

    # An LRU filled to capacity behind a real (notifying) manager, so the
    # policy's maintained fast paths are the ones timed.
    manager = build_stack(
        StackConfig(
            profile=PROFILE, policy="lru", variant="baseline",
            num_pages=NUM_PAGES, options=OPTIONS,
        )
    )
    run_trace(manager, Trace(pages, writes), options=OPTIONS)
    policy = manager.policy
    out["policies.on_access_ns"] = _per_call_ns(policy.on_access, policy.pages())
    repeats = range(M_CALLS // 5)
    out["policies.select_victim_ns"] = _per_call_ns(
        lambda _: policy.select_victim(), repeats
    )
    out["policies.next_dirty_ns"] = _per_call_ns(
        lambda _: policy.next_dirty(PROFILE.k_w), repeats
    )

    router = build_router(cluster_config(1))
    start = perf_counter_ns()
    router.split(pages, writes)
    out["cluster.router.split_ns_per_op"] = (perf_counter_ns() - start) / len(pages)

    page_array = np.asarray(pages, dtype=np.int64)
    write_array = np.asarray(writes, dtype=bool)
    start = perf_counter()
    Trace.from_arrays(page_array, write_array)
    out["workloads.tolist_s"] = perf_counter() - start


# ------------------------------------------------------ proxied (P) metrics


def _mean_ns(totals, name: str, self_time: bool) -> float:
    calls, total, self_ns = totals.get(name, (0, 0, 0))
    if not calls:
        return NOT_EXERCISED
    return (self_ns if self_time else total) / calls


def _span_metrics(tracer: Tracer, ops: int, out: dict) -> None:
    """Per-call means from every recorded span; root self time from pass 0."""
    totals = tracer.totals()
    root = tracer.totals(0).get("engine.executor")
    if root:
        out["engine.executor.self_ns_per_op"] = root[2] / ops
    out["bufferpool.manager.hit_ns"] = _mean_ns(
        totals, "bufferpool.manager.hit", True
    )
    out["bufferpool.manager.miss_self_ns"] = _mean_ns(
        totals, "bufferpool.manager.miss", True
    )
    for name in (
        "core.writer.select", "core.writer.flush", "core.evictor.select",
        "core.evictor.evict", "core.reader.select", "core.reader.fetch",
        "prefetch.observe", "prefetch.on_miss", "prefetch.suggest",
        "bufferpool.wal.log_update", "bufferpool.wal.flush",
    ):
        out[f"{name}_ns"] = _mean_ns(totals, name, True)
    out["storage.device.read_ns"] = _mean_ns(totals, "storage.device.read", False)
    out["storage.device.write_batch_ns"] = _mean_ns(
        totals, "storage.device.write_batch", False
    )


def _self_ns_per_op(tracer: Tracer, prefixes: tuple[str, ...], ops: int) -> float:
    """Summed pass-0 self time of every span under ``prefixes``, per access."""
    return sum(
        self_ns
        for name, (_, _, self_ns) in tracer.totals(0).items()
        if name.startswith(prefixes)
    ) / ops


def _counter_metrics(before: RunMetrics, after: RunMetrics, ops: int,
                     variant: str, out: dict) -> None:
    """Count-based layer metrics from a cumulative ``RunMetrics`` pair."""
    kops = ops / 1e3
    b0, b1, d0, d1 = before.buffer, after.buffer, before.device, after.device
    out["bufferpool.manager.hit_ratio"] = (b1.hits - b0.hits) / ops
    out["bufferpool.manager.evictions_per_kop"] = (b1.evictions - b0.evictions) / kops
    writebacks = b1.writebacks - b0.writebacks
    batches = b1.writeback_batches - b0.writeback_batches
    out["bufferpool.manager.writebacks_per_kop"] = writebacks / kops
    out["storage.device.reads_per_kop"] = (d1.reads - d0.reads) / kops
    out["storage.device.writes_per_kop"] = (d1.writes - d0.writes) / kops
    out["storage.device.write_batches_per_kop"] = (
        d1.write_batches - d0.write_batches
    ) / kops
    if variant != "baseline" and batches:
        out["core.mean_writeback_batch"] = writebacks / batches
    issued = b1.prefetch_issued - b0.prefetch_issued
    if issued:
        out["prefetch.issued_per_kop"] = issued / kops
        out["prefetch.useful_share"] = (b1.prefetch_hits - b0.prefetch_hits) / issued


# ------------------------------------------------------------- per workload


def _trace_kind(s: _Session) -> None:
    out, tracer = s.out, s.tracer
    with tracer.span("perfbench.untraced"):
        run = s.make()
        untraced_wall, ops = s.median_wall(run, s.spec.name)
    out["accesses_per_s"] = ops / untraced_wall
    out["workloads.generate_s"] = run.phases["workloads.generate_s"]
    with tracer.span("perfbench.direct"):
        _direct_metrics(run.slices[0].pages, run.slices[0].writes, out)

    traced = s.make(build=partial(_build_traced_stack, tracer=tracer))
    after, ops, traced_wall = s.traced_pass(traced)
    out["trace.overhead_ratio"] = traced_wall / untraced_wall
    _counter_metrics(traced.warm_metrics, after, ops, s.spec.variant, out)

    # Pass 1: the harness is the client, one ``access`` call per request.
    tracer.pass_id = 1
    second = traced.slices[1]
    access = traced.manager.access
    with tracer.span("perfbench.driver"):
        for page, is_write in zip(second.pages, second.writes):
            access(page, is_write)
    tracer.pass_id = 2
    _span_metrics(tracer, ops, out)

    own_ns = untraced_wall / ops * 1e9
    if s.spec.name in ("ms_base", "ms_ace"):
        with tracer.span("perfbench.differential"):
            base_wall = untraced_wall
            baseline = replace(s.spec, variant="baseline")
            if s.spec.name == "ms_ace":
                base_wall, _ = s.median_wall(s.make(baseline), "lru/baseline")
            # A disarmed fault plan puts the classic manager on the generic
            # (not inlined) miss path that every ACE stack takes.
            generic_wall, _ = s.median_wall(
                s.make(baseline, fault_plan=FaultPlan()),
                "lru/baseline on the generic path",
            )
        out["bufferpool.manager.generic_over_turbo"] = generic_wall / base_wall
    if s.spec.name == "ms_base":
        _serving_differential(s)
    elif s.spec.name == "ms_ace":
        out["core.ace_over_base"] = untraced_wall / base_wall
        out["core.accounted_share"] = _self_ns_per_op(tracer, ("core.",), ops) / (
            own_ns - base_wall / ops * 1e9
        )
    elif s.spec.name == "ms_acepf":
        with tracer.span("perfbench.differential"):
            ace_wall, _ = s.median_wall(
                s.make(replace(s.spec, variant="ace")), "lru/ace"
            )
            null_wall, _ = s.median_wall(
                s.make(build=partial(build_stack, prefetcher=NullPrefetcher())),
                "lru/ace+pf with NullPrefetcher",
            )
        out["prefetch.pf_over_ace"] = untraced_wall / ace_wall
        out["prefetch.null_over_ace"] = null_wall / ace_wall
        out["prefetch.accounted_share"] = _self_ns_per_op(
            tracer, ("prefetch.", "core.reader."), ops
        ) / (own_ns - ace_wall / ops * 1e9)


def _serving_differential(s: _Session) -> None:
    """Closed-loop admission layer against the general loop it wraps."""

    def side(label: str, keyword: str, factory) -> tuple[float, int]:
        run = s.make()
        return s.median_wall(
            run, f"{label} loop",
            lambda index: run_trace(
                run.manager, run.slices[index], options=OPTIONS,
                **{keyword: factory()},
            ),
        )

    with s.tracer.span("perfbench.differential"):
        serving_wall, ops = side("serving", "serving", ServingConfig)
        general_wall, _ = side("general", "latencies", LatencyRecorder)
    s.out["engine.serving.admit_ns_per_op"] = (
        (serving_wall - general_wall) / ops * 1e9
    )


def _tpcc_kind(s: _Session) -> None:
    out, tracer = s.out, s.tracer
    with tracer.span("perfbench.untraced"):
        run = s.make()
        untraced_wall, ops = s.median_wall(run, s.spec.name)
    out["accesses_per_s"] = ops / untraced_wall
    out["workloads.tpcc_stream_s"] = run.phases["workloads.tpcc_stream_s"]
    pages, writes = run.calibration_lists()
    with tracer.span("perfbench.direct"):
        _direct_metrics(pages, writes, out)

    traced = s.make(build=partial(_build_traced_stack, tracer=tracer))
    traced.bg_writer.run_round = tracer.wrap(
        "bufferpool.background.bgwriter", traced.bg_writer.run_round
    )
    traced.checkpointer.checkpoint = tracer.wrap(
        "bufferpool.background.checkpoint", traced.checkpointer.checkpoint
    )
    # Both batches: the first checkpoint falls due in the second.
    batches = len(traced.batches)
    after, traced_ops, traced_wall = s.traced_pass(traced, slices=batches)
    out["trace.overhead_ratio"] = (traced_wall / traced_ops) / (untraced_wall / ops)
    before = traced.warm_metrics
    _counter_metrics(before, after, traced_ops, "ace", out)
    _span_metrics(tracer, traced_ops, out)

    totals = tracer.totals(0)
    ktx = sum(len(batch) for batch in traced.batches) / 1e3
    out["bufferpool.wal.flushes_per_ktx"] = (
        totals.get("bufferpool.wal.flush", (0,))[0] / ktx
    )
    out["bufferpool.wal.pages_per_ktx"] = (
        after.wal_pages_written - before.wal_pages_written
    ) / ktx
    rounds = totals.get("bufferpool.background.bgwriter", (0, 0, 0))
    checkpoints = totals.get("bufferpool.background.checkpoint", (0, 0, 0))
    out["bufferpool.background.rounds"] = rounds[0]
    out["bufferpool.background.bgwriter_ns_per_round"] = rounds[1] / max(1, rounds[0])
    out["bufferpool.background.checkpoints"] = checkpoints[0]
    out["bufferpool.background.checkpoint_ns"] = checkpoints[1] / max(
        1, checkpoints[0]
    )
    physical = after.ftl.physical_writes - before.ftl.physical_writes
    logical = after.ftl.logical_writes - before.ftl.logical_writes
    out["storage.ftl.write_amplification"] = physical / logical

    tracer.pass_id = 2
    with tracer.span("bufferpool.recovery"):
        audits = traced.finish() + run.finish()
    for name, failed in audits:
        s.check(name, failed)
    for name, value in traced.phases.items():
        if name.startswith("bufferpool.recovery."):
            out[name] = value

    with tracer.span("perfbench.differential"):
        nowal_wall, _ = s.median_wall(s.make(with_wal=False), "tpcc/no-wal")
        noftl = s.make(with_ftl=False)
        noftl_wall, _ = s.median_wall(noftl, "tpcc/no-ftl")
    out["bufferpool.wal.wal_over_nowal"] = untraced_wall / nowal_wall
    # Writes of the same passes whose walls are compared (both sides issue
    # the same writes: the FTL changes what a write costs, not whether).
    writes_per_pass = (
        run.manager.device.stats.writes - run.warm_metrics.device.writes
    ) / D_PASSES
    out["storage.ftl.ns_per_write"] = (
        (untraced_wall - noftl_wall) / writes_per_pass * 1e9
    )


class _ClusterSide(NamedTuple):
    """Medians over ``D_PASSES`` passes at one replication factor."""

    observed_s: float  # pass wall seen by the caller of ``run_cluster``
    slowest_shard_s: float  # the modelled makespan: max ``replay_wall_s``
    all_shards_s: float  # summed ``replay_wall_s``: shard CPU spent
    last: object  # the last pass's ``ClusterMetrics``
    run: object


def _cluster_side(s: _Session, factor: int) -> _ClusterSide:
    run = s.make(replication_factor=factor)
    walls, shard_walls = [], []
    cluster = None
    for index in range(D_PASSES):
        gc.collect()
        with s.tracer.span(f"cluster.engine.run_cluster.r{factor}") as span:
            cluster = run.execute(index)
        walls.append(s.tracer.seconds(span))
        shard_walls.append(cluster.replay_wall_s)
        s.account(run, cluster, f"cluster r{factor} pass {index}")
    return _ClusterSide(
        statistics.median(walls),
        statistics.median(max(shards) for shards in shard_walls),
        statistics.median(sum(shards) for shards in shard_walls),
        cluster,
        run,
    )


def _cluster_kind(s: _Session) -> None:
    out = s.out
    r1, r0 = _cluster_side(s, 1), _cluster_side(s, 0)
    ops = r1.last.merged.ops
    out["accesses_per_s"] = ops / r1.observed_s
    out["workloads.generate_s"] = r1.run.phases["workloads.generate_s"]
    # Nothing is proxied inside the worker processes: the traced run *is*
    # the untraced run.
    out["trace.overhead_ratio"] = 1.0
    out["cluster.engine.dispatch_ms"] = (r1.observed_s - r1.slowest_shard_s) * 1e3
    out["cluster.engine.observed_over_modelled"] = (
        r1.observed_s / r1.slowest_shard_s
    )
    out["cluster.engine.r0_accesses_per_s"] = ops / r0.observed_s
    out["cluster.replication.shard_ns_per_op"] = r1.all_shards_s / ops * 1e9
    out["cluster.replication.r1_over_r0"] = r1.all_shards_s / r0.all_shards_s
    out["cluster.replication.shipped_records_per_kop"] = (
        sum(report.shipped_records for report in r1.last.replication.per_shard)
        / ops * 1e3
    )
    _counter_metrics(
        RunMetrics(label="zero", elapsed_us=0.0, ops=0), r1.last.merged, ops,
        "baseline", out,
    )
    with s.tracer.span("perfbench.direct"):
        _direct_metrics(r1.run.slice.pages, r1.run.slice.writes, out)


_KINDS = {"trace": _trace_kind, "tpcc": _tpcc_kind, "cluster": _cluster_kind}


def trace_layers(workload: str, seed: int, scale: float = 1.0) -> Traced:
    """Run ``workload`` traced; write its spans; return the layer metrics."""
    spec = SPECS[workload]
    session = _Session(spec, seed, scale * TRACE_SCALE[spec.kind])
    _KINDS[spec.kind](session)
    path = OUT_DIR / f"trace-{workload}.json"
    session.tracer.write(
        path,
        {
            "workload": workload,
            "seed": seed,
            "columns": "span i: names[name[i]], start_ns[i], end_ns[i], "
            "parent[i] (span index, -1 for none), pass[i]",
        },
    )
    return Traced(
        session.out, path, session.attempted, session.failed, session.failures
    )
