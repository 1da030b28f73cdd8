"""The six workloads: how each stack is built, warmed, driven and checked.

Everything here goes through ``repro``'s public entry points
(``generate_trace``, ``TPCCWorkload``, ``build_stack``, ``run_trace``,
``run_transactions``, ``run_cluster``, ``simulate_crash``/``recover``/
``audit_committed``).  ``--seed`` reaches only the two generators; the
program under test sees the generated inputs.

A *run* object is one set-up of one workload.  The caller times
``execute(i)`` (one call of the public entry point over one slice) and
hands the result to ``account`` afterwards, so bookkeeping and checks stay
outside the timed region.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import NamedTuple

from repro.bench.runner import StackConfig, build_stack
from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.recovery import audit_committed, recover, simulate_crash
from repro.cluster import ClusterConfig, run_cluster
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, RIS, WorkloadSpec, generate_trace
from repro.workloads.tpcc import STANDARD_MIX, TPCCWorkload

from perfbench.calib import lru_steps
from perfbench.opcount import count_opcodes

__all__ = [
    "Spec",
    "SPECS",
    "PassResult",
    "make_run",
    "cluster_config",
    "passes_for",
    "NUM_PAGES",
    "SLICE_OPS",
    "OPTIONS",
    "PROFILE",
    "WORKERS",
]

NUM_PAGES = 20_000
PROFILE = PCIE_SSD
OPTIONS = ExecutionOptions(cpu_us_per_op=30.0)

#: Accesses per timed pass unless the spec says otherwise.
SLICE_OPS = 250_000
#: Slices a reused trace is cut into; pass ``i`` replays slice ``i % 8``.
SLICES = 8
#: Accesses of the extra slice replayed under the opcode counter.
OPCODE_OPS = 50_000
#: ``tpcc_durable``: transactions per timed pass (about 100 k accesses), in
#: the warm pass, and under the opcode counter.
BATCH_TX = 4_000
WARM_TX = 2_000
OPCODE_TX = 1_500
#: Shard clients of ``cluster_r1``: one per shard, never more than the host has.
WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Spec:
    """One workload: the stack, its sizing, and the reason it exists."""

    name: str
    why: str
    kind: str  # "trace" | "tpcc" | "cluster"
    variant: str
    #: Timed passes at ``--seconds 10``; sized from the per-access costs in
    #: README.md so the timed part is about 9 s on a quiet 2-core reference
    #: host, and over 8 s whenever it is measured.
    passes: int
    #: Calibration-kernel steps per run: 5-10 % of one pass's wall.
    calib_iterations: int
    mix: WorkloadSpec = MS
    pool_fraction: float = 0.06
    slice_ops: int = SLICE_OPS
    warm_ops: int = SLICE_OPS
    #: Every timed slice is replayed once only (a repeated slice would let
    #: the history prefetcher learn the repetition).
    fresh_slices: bool = False


SPECS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            "ms_base",
            "lru/baseline at 6 % pool (hit ratio 0.47): the turbo replay loop, "
            "miss path and device; ACE, prefetch, WAL and cluster code bypassed",
            "trace", "baseline", passes=44, calib_iterations=60_000,
        ),
        Spec(
            "ms_ace",
            "lru/ace on the same trace: Writer/Evictor batching plus the generic "
            "miss path every ACE stack takes instead of the inlined loop",
            "trace", "ace", passes=17, calib_iterations=170_000,
        ),
        Spec(
            "ms_acepf",
            "lru/ace+pf on the same stream, each slice once: history/TaP "
            "prefetchers and the Reader more than double the cost of lru/ace",
            "trace", "ace+pf", passes=16, calib_iterations=190_000,
            slice_ops=100_000, warm_ops=100_000, fresh_slices=True,
        ),
        Spec(
            "fit_hits",
            "database fits the pool (RIS 90/10 reads): only translation probe, "
            "policy touch and the loop run; miss path, ACE and device idle "
            "after the compulsory misses",
            "trace", "baseline", passes=144, calib_iterations=22_000,
            mix=RIS, pool_fraction=1.0, warm_ops=10_000,
        ),
        Spec(
            "tpcc_durable",
            "TPC-C on lru/ace with WAL, FTL, background writer and checkpointer "
            "through the executor's general loop, then crash, recover, audit",
            "tpcc", "ace", passes=18, calib_iterations=175_000,
        ),
        Spec(
            "cluster_r1",
            "2 shards x (primary + 1 replica) in 2 worker processes: router "
            "split, dispatch, WAL shipping, replica redo apply, per-shard audit",
            "cluster", "baseline", passes=14, calib_iterations=250_000,
            slice_ops=125_000, warm_ops=125_000,
        ),
    )
}


def passes_for(spec: Spec, seconds: float) -> int:
    """Timed passes for ``--seconds``: fixed by count, never by the clock."""
    return max(2, round(spec.passes * seconds / 10))


class PassResult(NamedTuple):
    """What one timed pass did, after bookkeeping."""

    ops: int
    virtual_us: float
    device_ios: int
    failures: list[str]
    #: This pass's buffer and device counters (see ``_counters``).
    counters: dict[str, int]


def _scaled(count: int, scale: float) -> int:
    return max(50, int(count * scale))


def _counters(metrics) -> dict[str, int]:
    buffer, device = metrics.buffer, metrics.device
    return {
        "hits": buffer.hits,
        "misses": buffer.misses,
        "writebacks": buffer.writebacks,
        "batches": buffer.writeback_batches,
        "prefetched": buffer.prefetch_issued,
        "reads": device.reads,
        "writes": device.writes,
    }


def check_pass(variant: str, sent: int, ops: int, d: dict[str, int]) -> list[str]:
    """The per-pass invariants every stack must keep (see README.md)."""
    failures = []
    if ops != sent:
        failures.append(f"completed {ops} of {sent} accesses")
    if d["hits"] + d["misses"] != ops:
        failures.append(f"hits+misses {d['hits'] + d['misses']} != ops {ops}")
    if d["writebacks"] != d["writes"]:
        failures.append(
            f"write-backs {d['writebacks']} != device writes {d['writes']}"
        )
    if d["reads"] != d["misses"] + d["prefetched"]:
        failures.append(
            f"device reads {d['reads']} != misses {d['misses']} "
            f"+ prefetched {d['prefetched']}"
        )
    if variant == "baseline":
        if d["writebacks"] != d["batches"]:
            failures.append("baseline write-back batch larger than one page")
    elif not d["batches"] < d["writebacks"] <= PROFILE.k_w * d["batches"]:
        failures.append(
            f"ACE mean write-back batch {d['writebacks']}/{d['batches']} "
            f"outside (1, {PROFILE.k_w}]"
        )
    return failures


class _Accountant:
    """Turns cumulative ``RunMetrics`` of a reused manager into pass deltas."""

    def __init__(self, variant: str, warm_metrics) -> None:
        self.variant = variant
        self._previous = _counters(warm_metrics)

    def account(self, metrics, sent: int) -> PassResult:
        now = _counters(metrics)
        delta = {key: now[key] - self._previous[key] for key in now}
        self._previous = now
        return PassResult(
            ops=metrics.ops,
            virtual_us=metrics.elapsed_us,
            device_ios=delta["reads"] + delta["writes"],
            failures=check_pass(self.variant, sent, metrics.ops, delta),
            counters=delta,
        )


class TraceRun:
    """One warm single-stack manager replaying slices of one trace."""

    def __init__(
        self, spec: Spec, seed: int, passes: int, scale: float,
        build=build_stack, **overrides,
    ) -> None:
        self.spec = spec
        self.phases: dict[str, float] = {}
        slice_ops = _scaled(spec.slice_ops, scale)
        warm_ops = _scaled(spec.warm_ops, scale)
        opcode_ops = _scaled(OPCODE_OPS, scale)
        slices = passes if spec.fresh_slices else SLICES
        start = perf_counter()
        trace = generate_trace(
            spec.mix, NUM_PAGES, warm_ops + slices * slice_ops + opcode_ops,
            seed=seed,
        )
        self.phases["workloads.generate_s"] = perf_counter() - start
        self.warm = trace.slice(0, warm_ops)
        self.slices = [
            trace.slice(warm_ops + i * slice_ops, warm_ops + (i + 1) * slice_ops)
            for i in range(slices)
        ]
        self.opcode_slice = trace.slice(len(trace) - opcode_ops, len(trace))
        self.config = StackConfig(
            profile=PROFILE, policy="lru", variant=spec.variant,
            num_pages=NUM_PAGES, pool_fraction=spec.pool_fraction,
            options=OPTIONS, **overrides,
        )
        self.manager = build(self.config)
        #: Cumulative metrics after the warm pass (the baseline for deltas).
        self.warm_metrics = run_trace(self.manager, self.warm, options=OPTIONS)
        self._accountant = _Accountant(spec.variant, self.warm_metrics)
        self._first: PassResult | None = None

    def calibration_lists(self) -> tuple[list[int], list[bool]]:
        return self.slices[0].pages, self.slices[0].writes

    def execute(self, index: int):
        return run_trace(
            self.manager, self.slices[index % len(self.slices)], options=OPTIONS
        )

    def account(self, metrics) -> PassResult:
        result = self._accountant.account(metrics, len(self.slices[0]))
        if self._first is None:
            self._first = result
        return result

    def count_opcodes(self) -> tuple[int, int]:
        opcodes = count_opcodes(
            partial(run_trace, self.manager, self.opcode_slice, options=OPTIONS)
        )
        return opcodes, len(self.opcode_slice)

    def finish(self) -> list[tuple[str, list[str]]]:
        """Audit pass 0 against the reference LRU (prefetching changes
        residency, so ``ace+pf`` has no such oracle)."""
        if self.spec.variant == "ace+pf" or self._first is None:
            return []
        result, delta = self._first, self._first.counters
        first = self.slices[0]
        # A textbook LRU that shares nothing with ``repro``: the oracle
        # that turns "counters are self-consistent" into "counters are right".
        order: OrderedDict[int, bool] = OrderedDict()
        capacity = self.config.pool_capacity
        lru_steps(self.warm.pages, self.warm.writes, len(self.warm), order, capacity)
        hits, misses, dirty_evictions = lru_steps(
            first.pages, first.writes, len(first), order, capacity
        )
        failures = []
        if (delta["hits"], delta["misses"]) != (hits, misses):
            failures.append(
                f"pass 0 hits/misses {delta['hits']}/{delta['misses']} != "
                f"reference LRU {hits}/{misses}"
            )
        if self.spec.variant == "baseline":
            # ACE writes back ahead of eviction, so only the classic
            # manager's write-backs and virtual time have a closed form.
            model = self.manager.device.model
            expected_us = (
                misses * model.read_batch_us(1)
                + dirty_evictions * model.write_batch_us(1)
                + OPTIONS.cpu_us_per_op * len(first)
            )
            if delta["writebacks"] != dirty_evictions:
                failures.append(
                    f"pass 0 write-backs {delta['writebacks']} != "
                    f"reference dirty evictions {dirty_evictions}"
                )
            if abs(result.virtual_us - expected_us) > 1e-9 * expected_us:
                failures.append(
                    f"pass 0 virtual time {result.virtual_us} us != "
                    f"closed form {expected_us} us"
                )
        return [("reference-lru", failures)]


def _exact_mix(workload: TPCCWorkload, count: int) -> list:
    """``count`` transactions in exactly the standard mix, interleaved.

    ``transaction_stream`` samples the type of every transaction, so two
    seeds give two different mixes and costs that differ by over a percent
    for that reason alone.  Here the schedule of types is fixed (always the
    type furthest behind its share) and only the transactions' contents
    come from the seeded generator.
    """
    issued = dict.fromkeys(STANDARD_MIX, 0)
    transactions = []
    for index in range(1, count + 1):
        kind = max(issued, key=lambda k: STANDARD_MIX[k] * index - issued[k])
        issued[kind] += 1
        transactions.extend(workload.transaction_stream(1, only=kind))
    return transactions


class TpccRun:
    """TPC-C through the general loop on a durable ACE stack."""

    def __init__(
        self, spec: Spec, seed: int, passes: int, scale: float,
        build=build_stack, **overrides,
    ) -> None:
        self.spec = spec
        self.phases: dict[str, float] = {}
        workload = TPCCWorkload(warehouses=10, row_scale=0.1, seed=seed)
        start = perf_counter()
        warm = _exact_mix(workload, _scaled(WARM_TX, scale))
        # Two batches, replayed alternately: generating one per pass would
        # multiply the set-up without exercising any other code.
        self.batches = [
            _exact_mix(workload, _scaled(BATCH_TX, scale)) for _ in range(2)
        ]
        self.opcode_batch = _exact_mix(workload, _scaled(OPCODE_TX, scale))
        self.phases["workloads.tpcc_stream_s"] = perf_counter() - start
        self.num_pages = workload.total_pages
        self.config = StackConfig(**{
            "profile": PROFILE, "policy": "lru", "variant": "ace",
            "num_pages": self.num_pages, "with_wal": True, "with_ftl": True,
            "options": OPTIONS, **overrides,
        })
        self.manager = build(self.config)
        n_w = self.manager.config.n_w
        self.bg_writer = BackgroundWriter(
            self.manager, pages_per_round=16, batch_size=n_w
        )
        self.checkpointer = Checkpointer(
            self.manager, interval_us=OPTIONS.checkpoint_interval_us,
            batch_size=n_w,
        )
        self._replayed = [warm]
        self.warm_metrics = self._run(warm)
        self._accountant = _Accountant("ace", self.warm_metrics)
        self._sent = 0

    def _run(self, transactions):
        return run_transactions(
            self.manager, transactions, options=OPTIONS,
            bg_writer=self.bg_writer, checkpointer=self.checkpointer,
        )

    def calibration_lists(self) -> tuple[list[int], list[bool]]:
        requests = [r for _, batch in self.batches[0] for r in batch]
        return [r.page for r in requests], [r.is_write for r in requests]

    def execute(self, index: int):
        batch = self.batches[index % len(self.batches)]
        self._replayed.append(batch)
        self._sent = sum(len(requests) for _, requests in batch)
        return self._run(batch)

    def account(self, metrics) -> PassResult:
        return self._accountant.account(metrics, self._sent)

    def count_opcodes(self) -> tuple[int, int]:
        # A checkpoint costs about 2 % of this batch's opcodes and would fall
        # due inside it on roughly one seed in three.  Taking one now puts
        # the next a full interval away, so the count never contains one.
        self.checkpointer.checkpoint()
        self._replayed.append(self.opcode_batch)
        opcodes = count_opcodes(partial(self._run, self.opcode_batch))
        return opcodes, sum(len(requests) for _, requests in self.opcode_batch)

    def finish(self) -> list[tuple[str, list[str]]]:
        """Power loss, redo, and the exact committed-update audit."""
        # Every transaction ended in a WAL flush, so every write is
        # committed: the ledger is each page's total write count.
        ledger: dict[int, int] = {}
        for batch in self._replayed:
            for _, requests in batch:
                for request in requests:
                    if request.is_write:
                        ledger[request.page] = ledger.get(request.page, 0) + 1
        start = perf_counter()
        image = simulate_crash(self.manager)
        crashed = perf_counter()
        report = recover(image)
        recovered = perf_counter()
        audit = audit_committed(
            image, report, ledger, exact=True, pages=range(self.num_pages)
        )
        audited = perf_counter()
        self.phases["bufferpool.recovery.crash_ms"] = (crashed - start) * 1e3
        self.phases["bufferpool.recovery.recover_ms"] = (recovered - crashed) * 1e3
        self.phases["bufferpool.recovery.audit_ms"] = (audited - recovered) * 1e3
        self.phases["bufferpool.recovery.redo_records"] = report.redo_applied
        failures = []
        if audit.lost_updates:
            failures.append(f"{audit.lost_updates} committed updates lost")
        if audit.phantom_pages:
            failures.append(f"{audit.phantom_pages} pages hold phantom redo")
        return [("durability-audit", failures)]


def cluster_config(replication_factor: int) -> ClusterConfig:
    """Two hash-placed baseline shards, each with that many replicas."""
    return ClusterConfig(
        profile=PROFILE, policy="lru", variant="baseline",
        num_pages=NUM_PAGES, num_shards=2,
        replication_factor=replication_factor,
        placement="hash", options=OPTIONS,
    )


class ClusterRun:
    """Two replicated shard groups, fresh stacks every pass."""

    def __init__(
        self, spec: Spec, seed: int, passes: int, scale: float,
        replication_factor: int = 1,
    ) -> None:
        self.spec = spec
        self.phases: dict[str, float] = {}
        slice_ops = _scaled(spec.slice_ops, scale)
        warm_ops = _scaled(spec.warm_ops, scale)
        opcode_ops = _scaled(OPCODE_OPS, scale)
        start = perf_counter()
        trace = generate_trace(
            MS, NUM_PAGES, warm_ops + slice_ops + opcode_ops, seed=seed
        )
        self.phases["workloads.generate_s"] = perf_counter() - start
        self.warm = trace.slice(0, warm_ops)
        self.slice = trace.slice(warm_ops, warm_ops + slice_ops)
        self.opcode_slice = trace.slice(warm_ops + slice_ops, len(trace))
        self.config = cluster_config(replication_factor)
        run_cluster(self.config, self.warm, workers=WORKERS)

    def calibration_lists(self) -> tuple[list[int], list[bool]]:
        return self.slice.pages, self.slice.writes

    def execute(self, index: int):
        return run_cluster(self.config, self.slice, workers=WORKERS)

    def account(self, cluster) -> PassResult:
        merged = cluster.merged
        counters = _counters(merged)
        failures = check_pass("baseline", len(self.slice), merged.ops, counters)
        if self.config.replication_factor:
            replication = cluster.replication
            if replication is None or not replication.ok:
                failures.append("replication audit failed")
            elif replication.availability != 1.0:
                failures.append(
                    f"availability {replication.availability} != 1.0"
                )
        return PassResult(
            ops=merged.ops,
            virtual_us=merged.elapsed_us,
            device_ios=counters["reads"] + counters["writes"],
            failures=failures,
            counters=counters,
        )

    def count_opcodes(self) -> tuple[int, int]:
        # In process: a worker's opcodes are invisible to this tracer.
        opcodes = count_opcodes(
            partial(run_cluster, self.config, self.opcode_slice, workers=1)
        )
        return opcodes, len(self.opcode_slice)

    def finish(self) -> list[tuple[str, list[str]]]:
        return []


_KINDS = {"trace": TraceRun, "tpcc": TpccRun, "cluster": ClusterRun}


def make_run(spec: Spec, seed: int, passes: int, scale: float = 1.0, **variation):
    """Set one workload up: inputs, stack, one untimed warm pass.

    ``variation`` is how the traced run builds the second side of a
    differential: ``build=`` replaces ``build_stack`` (proxied or
    null-prefetcher stacks), other keywords override ``StackConfig`` fields
    (``with_wal=False``) or the cluster's ``replication_factor``.
    """
    return _KINDS[spec.kind](spec, seed, passes, scale, **variation)
