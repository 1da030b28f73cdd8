"""One differential harness for the two spellings of a request.

A request is spelled twice: the executor's inlined loop and
``manager.access`` once per request (:func:`per_request` forces the latter),
and both must leave every observable output (:func:`state`) byte-identical.
A :class:`Cell` (policy x variant x surrounding, with a prefetcher and a
placement) is built by :func:`build` through ``core.stack.build_manager``,
``sanitize`` always passed so that no environment switch puts both arms on
one path; :func:`run_cell` drives it through a :class:`Work` once per
process and arm, so test ids needing the same run share it.  Only cells
built identically may share a run: an instance override of a policy hook
(a recorder, say) changes what ``policy.hooks()`` publishes to the loop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from collections import namedtuple
from unittest import mock

from repro.bufferpool import table
from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.wal import WriteAheadLog
from repro.core.stack import build_manager
from repro.engine import executor
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.faults import FaultPlan, FaultyDevice
from repro.policies.registry import PAPER_POLICIES
from repro.prefetch import CompositePrefetcher, NPLPrefetcher, NullPrefetcher
from repro.storage.clock import to_ticks
from repro.workloads.synthetic import MS, generate_trace
from repro.workloads.tpcc.driver import TPCCWorkload
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import Trace

from tests.bufferpool.conftest import make_device

NUM_PAGES = 400
CAPACITY = 32
OPTIONS = ExecutionOptions(cpu_us_per_op=3.0)

#: The surroundings: ``bare`` (the inlined loop's case), ``ftl`` (an FTL
#: device), ``faultplan`` (a disarmed ``FaultPlan``, never turbo-ready), and
#: these with a WAL: ``wal``, ``faultplan+wal``, ``background`` (the
#: transactions work adds a background writer and a checkpointer) and
#: ``dict`` (over the hash-table translation).
LOGGED = ("wal", "faultplan+wal", "background", "dict")

ARMS = ("inlined", "per_request")

PREFETCHERS = {
    "composite": lambda: CompositePrefetcher(max_page=NUM_PAGES),
    "npl": lambda: NPLPrefetcher(4, max_page=NUM_PAGES),
    "null": NullPrefetcher,
}


def per_request(force_slow=True):
    """While active (if ``force_slow``), ``replay`` takes its reference arm:
    ``manager.access`` request by request, whatever the stack."""
    if not force_slow:
        return contextlib.nullcontext()
    return mock.patch.object(executor, "_turbo_ready", lambda manager: False)


def on_both_arms(run):
    """``[inlined, per_request]``: what ``run()`` returns on each arm."""
    results = []
    for arm in ARMS:
        with per_request(arm == "per_request"):
            results.append(run())
    return results


def stack_device(surrounding="bare"):
    device = make_device(NUM_PAGES, with_ftl=(surrounding == "ftl"))
    return FaultyDevice(device, FaultPlan()) if "faultplan" in surrounding else device


def build(policy="lru", variant="baseline", *, surrounding="bare", sanitize=False,
          prefetcher=None, placement="cold"):
    """One stack of the grid; ``prefetcher`` is an instance or a
    :data:`PREFETCHERS` name."""
    device = stack_device(surrounding)
    if isinstance(prefetcher, str):
        prefetcher = PREFETCHERS[prefetcher]()
    limit = 0 if surrounding == "dict" else table.ARRAY_SPACE_LIMIT
    with mock.patch.object(table, "ARRAY_SPACE_LIMIT", limit):
        manager = build_manager(
            device, CAPACITY, policy, variant, prefetcher=prefetcher,
            wal=WriteAheadLog(device.clock) if surrounding in LOGGED else None,
            sanitize=sanitize,
        )
    assert manager.table.backend == ("dict" if surrounding == "dict" else "array")
    if placement != "cold":
        manager.config = dataclasses.replace(manager.config, prefetch_placement=placement)
        manager.reader.cold_placement = False
    return manager


def wal_state(wal):
    """The log as a caller can read it through the public API, after a
    commit flush (so the buffered tail is compared too): every durable
    record, each log page's image — its records, intended count and
    checksum — page by page, and the log device's counters."""
    if wal is None:
        return None
    wal.flush()
    images = [wal.device.peek(page) for page in range(wal.pages_written)]
    return {
        "device": dataclasses.asdict(wal.device.stats), "lsn": wal.lsn,
        "durable_lsn": wal.durable_lsn, "records": wal.durable_records(),
        "images": [(image.records, image.intended_count, image.checksum, image.is_valid)
                   for image in images],
    }


def state(manager):
    """Everything a run leaves behind that a later request could observe."""
    device = manager.device
    return {
        "buffer": dataclasses.asdict(manager.stats),
        "device": dataclasses.asdict(device.stats),
        "clock_us": device.clock.now_us,
        "residency_order": manager.table.pages(),
        "virtual_order": manager.policy.peek(CAPACITY),
        "dirty": manager.dirty_pages(),
        "pool_pressure": manager.pool_pressure,
        "payloads": device.snapshot_payloads(),
        "ftl": device.ftl
        and (dataclasses.asdict(device.ftl.counters), device.ftl.erase_counts()),
        "wal": wal_state(manager.wal),  # last: it flushes the log
    }


def frames(manager):
    """Which frame holds what, and which frame the next miss takes."""
    pool = manager.pool
    return [list(column) for column in (
        pool.page_of, pool.dirty_bits, pool.prefetched_bits, pool._payloads, pool._free,
    )]


def fingerprint(manager, metrics):
    return dataclasses.asdict(metrics) | state(manager) | {"frames": frames(manager)}


def prefetcher_state(prefetcher):
    if not isinstance(prefetcher, CompositePrefetcher):
        return None  # the lookahead prefetchers keep no state
    history, tap = prefetcher.history, prefetcher.sequential
    return {
        "rows": [history.row(page) for page in range(NUM_PAGES)],
        "trained_pairs": history.trained_pairs,
        "tap": list(tap.table_contents().items()),  # FIFO order included
        "streams_detected": tap.streams_detected,
        "suggestions": (prefetcher.sequential_suggestions, prefetcher.history_suggestions),
    }


# ------------------------------------------------------------- the works

#: A TPC-C mix scaled to fit the 400-page device (396 pages, ~1,000 requests).
TRANSACTIONS = list(TPCCWorkload(
    warehouses=1, row_scale=0.018, seed=5, initial_orders_per_district=5
).transaction_stream(40))

#: Short enough that rounds and checkpoints fall mid-run (~90 ms virtual).
BACKGROUND_OPTIONS = ExecutionOptions(
    cpu_us_per_op=3.0, bg_writer_interval_us=4_000.0, checkpoint_interval_us=15_000.0
)

#: MS turns the pool over with dirty pages; the scan that follows is what
#: a prefetcher is for (and runs wide exchanges over MS's dirty leftovers).
SCAN = Trace(
    list(range(NUM_PAGES)) * 2, [page % 7 == 0 for page in range(NUM_PAGES)] * 2, "scan"
)


#: A drive: ``trace`` (MS of ``requests``), ``transactions`` (the first
#: ``requests`` of :data:`TRANSACTIONS`) or ``reader`` (MS, then the scan).
Work = namedtuple("Work", "kind requests seed", defaults=(11,))


#: The grid's works.  The seven classic policies and MRU (test fixtures)
#: run shorter ones: the mutant table's rows die on the paper's four.
TRACE = Work("trace", 1500)
SANITIZED = Work("trace", 250)
TRANSACTIONS_WORK = Work("transactions", 40)
READER_WORK = Work("reader", 1200)
SHORTER = {TRACE: Work("trace", 400), SANITIZED: Work("trace", 150),
           TRANSACTIONS_WORK: Work("transactions", 12), READER_WORK: Work("reader", 300)}


def work_for(policy, work):
    return work if policy in PAPER_POLICIES else SHORTER[work]


Cell = namedtuple(
    "Cell", "policy variant surrounding sanitize prefetcher placement",
    defaults=("lru", "baseline", "bare", False, None, "cold"),
)


def _stepped_transactions(manager, transactions, options, bg_writer, checkpointer):
    """``run_transactions`` as it was while the clock was a float sum, each
    request charging its own CPU: the reference its bulk spelling equals."""
    session = executor.RunSession(manager, options, bg_writer, checkpointer)
    ops = new_orders = 0
    for kind, requests in transactions:
        session.clock.advance(options.cpu_us_per_transaction)
        for request in requests:
            session.clock.advance(options.cpu_us_per_op)
            manager.access(request.page, request.is_write)
        ops += len(requests)
        manager.wal.flush()
        new_orders += kind is TransactionType.NEW_ORDER
        session.tick()
    return session.finish(
        "transactions", ops=ops, transactions=len(transactions),
        new_order_transactions=new_orders,
        cpu_ticks=to_ticks(options.cpu_us_per_op) * ops
        + to_ticks(options.cpu_us_per_transaction) * len(transactions),
    )


def _drive_transactions(manager, cell, work, stepped):
    """The fingerprint plus ``calls`` (to ``manager.access``); the
    ``background`` surrounding adds what its writer and checkpointer did."""
    transactions, calls, access = TRANSACTIONS[: work.requests], [], manager.access
    manager.access = lambda page, is_write: calls.append(page) or access(page, is_write)
    if cell.surrounding != "background":
        metrics = run_transactions(manager, transactions, options=OPTIONS)
        return fingerprint(manager, metrics) | {"calls": len(calls)}
    n_w = manager.writer.n_w if manager.writer is not None else 1
    bg_writer = BackgroundWriter(manager, pages_per_round=8, batch_size=n_w)
    checkpointer = Checkpointer(
        manager, interval_us=BACKGROUND_OPTIONS.checkpoint_interval_us, batch_size=n_w
    )
    run = _stepped_transactions if stepped else run_transactions
    metrics = run(manager, transactions, BACKGROUND_OPTIONS, bg_writer, checkpointer)
    return fingerprint(manager, metrics) | {
        "calls": len(calls), "rounds": bg_writer.rounds, "bg_pages": bg_writer.pages_flushed,
        "checkpoints": checkpointer.checkpoints_taken,
        "checkpoint_pages": checkpointer.pages_flushed,
    }


@functools.cache
def run_cell(cell, arm, work, stepped=False):
    """What ``work`` leaves on ``cell`` replayed on ``arm``, once per
    process (callers must not mutate it); ``stepped`` drives transactions
    by the float clock's loop instead."""
    manager = build(
        cell.policy, cell.variant, surrounding=cell.surrounding,
        sanitize=cell.sanitize, prefetcher=cell.prefetcher, placement=cell.placement,
    )
    with per_request(arm == "per_request"):
        if work.kind == "transactions":
            return _drive_transactions(manager, cell, work, stepped)
        ms = generate_trace(MS, NUM_PAGES, work.requests, seed=work.seed)
        if work.kind == "trace":
            return fingerprint(manager, run_trace(manager, ms, options=OPTIONS))
        runs = [run_trace(manager, trace, options=OPTIONS, label=trace.name)
                for trace in (ms, SCAN)]
        return {
            "runs": [dataclasses.asdict(metrics) for metrics in runs],
            "state": state(manager),
            "prefetcher": prefetcher_state(manager.reader.prefetcher),
        }


def agreeing(cell, work):
    """The run of ``cell`` that both arms leave alike."""
    inlined, reference = (run_cell(cell, arm, work) for arm in ARMS)
    assert inlined == reference
    return inlined
