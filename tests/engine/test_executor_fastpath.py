"""Executor fast-path equivalence: inlined replay vs per-request replay.

``replay`` — the bulk entry behind ``run_trace``'s unobserved path, the
warm-up and each transaction of an unobserved ``run_transactions`` — runs
a bare stack (baseline, ACE or ACE with a Reader) inside the executor's
inlined loop instead of calling ``manager.access`` per request; every
other stack takes ``manager.access``.  That inlining is pure mechanics —
forcing the per-request path (patching ``executor._turbo_ready``) must
leave every observable output byte-identical: RunMetrics, device
counters, virtual clock, residency order, the policy's virtual order,
dirty set, device payloads, FTL counters, and the log (records through
the public API, each log page's image with its checksum, the log device's
counters — the inlined loop appends it only where it is observed, so this
is where a misplaced append shows).  The inlined loop and the miss
routine (a bare device vs a disarmed fault plan) must agree the same way
for the Reader stacks, prefetcher state included, and the prefetcher
must hear the same hook sequence on every replay.  A Hypothesis test then
holds the miss routine itself (LRU; baseline, ACE and ACE+PF with a
silent prefetcher, ``manager.access`` on a bare device) to a reference
pool that shares no code with it, and the prefetchers' kernels are held
to their first definitions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.cluster.engine import ClusterConfig, run_cluster
from repro.core.ace import ACEBufferPoolManager
from repro.core.adaptive import AdaptiveACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.core.stack import VARIANTS, build_manager
from repro.engine import executor
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.latency import LatencyRecorder
from repro.errors import PoolExhaustedError
from repro.faults import FaultPlan, FaultyDevice
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.prefetch import (
    CompositePrefetcher,
    HistoryPrefetcher,
    NPLPrefetcher,
    NullPrefetcher,
    TaPPrefetcher,
)
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace
from repro.workloads.tpcc.driver import TPCCWorkload
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import PageRequest, Trace

from tests.bufferpool.conftest import make_device, wal_state

NUM_PAGES = 400
CAPACITY = 32
OPTIONS = ExecutionOptions(cpu_us_per_op=3.0)

#: What surrounds the manager: nothing (the turbo loop's case), a WAL, an
#: FTL-backed device, a disarmed ``FaultPlan`` (never turbo-ready).
STACKS = ("bare", "wal", "ftl", "faultplan")


def stack_device(stack="bare"):
    device = make_device(NUM_PAGES, with_ftl=(stack == "ftl"))
    return FaultyDevice(device, FaultPlan()) if stack == "faultplan" else device


def per_request(force_slow):
    """While active (if ``force_slow``), ``replay`` takes its reference arm:
    ``manager.access`` request by request, whatever the stack."""
    if not force_slow:
        return contextlib.nullcontext()
    return mock.patch.object(executor, "_turbo_ready", lambda manager: False)


def build(policy_name="lru", variant="baseline", *, stack="bare", sanitize=False):
    # Never sanitised by the environment: that would put both sides of
    # every comparison below on the per-request path.
    device = stack_device(stack)
    return build_manager(
        device, CAPACITY, policy_name, variant,
        wal=WriteAheadLog(device.clock) if stack == "wal" else None,
        sanitize=sanitize,
    )


def state(manager):
    """Everything a run leaves behind that a later request could observe."""
    device = manager.device
    wal = manager.wal
    return {
        "buffer": dataclasses.asdict(manager.stats),
        "device": dataclasses.asdict(device.stats),
        "clock_us": device.clock.now_us,
        "residency_order": manager.table.pages(),
        "virtual_order": manager.policy.peek(CAPACITY),
        "dirty": manager.dirty_pages(),
        "payloads": device.snapshot_payloads(),
        "ftl": device.ftl
        and (dataclasses.asdict(device.ftl.counters), device.ftl.erase_counts()),
        "wal": wal_state(wal),  # last: it flushes the log
    }


def fingerprint(manager, metrics):
    return dataclasses.asdict(metrics) | state(manager)


def run_one(policy_name, variant, *, stack, force_slow, ops=1500, seed=11):
    manager = build(policy_name, variant, stack=stack)
    assert executor._turbo_ready(manager) is (stack != "faultplan")
    trace = generate_trace(MS, NUM_PAGES, ops, seed=seed)
    with per_request(force_slow):
        metrics = run_trace(manager, trace, options=OPTIONS)
    return fingerprint(manager, metrics)


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_fast_replay_matches_per_request(policy_name, variant, stack):
    """The oracle: every policy x variant x surrounding, both replays."""
    fast = run_one(policy_name, variant, stack=stack, force_slow=False)
    slow = run_one(policy_name, variant, stack=stack, force_slow=True)
    assert fast == slow
    assert fast["buffer"]["misses"] > CAPACITY  # the pool did turn over
    if variant != "baseline":
        assert fast["device"]["largest_write_batch"] > 1


#: A TPC-C mix scaled to fit the 400-page device (396 pages, ~1,000 requests).
TRANSACTIONS = list(
    TPCCWorkload(
        warehouses=1, row_scale=0.018, seed=5, initial_orders_per_district=5
    ).transaction_stream(40)
)


#: Short enough that rounds and checkpoints fall mid-run (~90 ms virtual).
BACKGROUND_OPTIONS = ExecutionOptions(
    cpu_us_per_op=3.0, bg_writer_interval_us=4_000.0, checkpoint_interval_us=15_000.0
)


def _stepped_transactions(manager, transactions, options, bg_writer, checkpointer):
    """The loop ``run_transactions`` had while the clock was a float sum:
    every request charges its own CPU before it runs.  Kept here as the
    reference the bulk spelling must equal, clock included."""
    session = executor.RunSession(manager, options, bg_writer, checkpointer)
    clock = session.clock
    ops = new_orders = 0
    for kind, requests in transactions:
        clock.advance(options.cpu_us_per_transaction)
        for request in requests:
            clock.advance(options.cpu_us_per_op)
            manager.access(request.page, request.is_write)
        ops += len(requests)
        manager.wal.flush()
        new_orders += kind is TransactionType.NEW_ORDER
        session.tick()
    return session.finish(
        "transactions", ops=ops, transactions=len(transactions),
        new_order_transactions=new_orders,
    )


def run_transactions_one(policy_name, variant, *, stack, force_slow, stepped=False):
    """(fingerprint, ``manager.access`` calls) of one transaction run.

    The ``background`` surrounding is a WAL plus a background writer and a
    checkpointer on intervals short enough to fire between transactions.
    """
    background = stack == "background"
    manager = build(policy_name, variant, stack="wal" if background else stack)
    access, calls = manager.access, []

    def counted(page, is_write):
        calls.append(page)
        return access(page, is_write)

    manager.access = counted
    if not background:
        with per_request(force_slow):
            metrics = run_transactions(manager, TRANSACTIONS, options=OPTIONS)
        return fingerprint(manager, metrics), len(calls)
    n_w = manager.writer.n_w if manager.writer is not None else 1
    bg_writer = BackgroundWriter(manager, pages_per_round=8, batch_size=n_w)
    checkpointer = Checkpointer(
        manager, interval_us=BACKGROUND_OPTIONS.checkpoint_interval_us, batch_size=n_w
    )
    run = _stepped_transactions if stepped else run_transactions
    with per_request(force_slow):
        metrics = run(manager, TRANSACTIONS, BACKGROUND_OPTIONS, bg_writer, checkpointer)
    assert bg_writer.rounds > 0 and checkpointer.checkpoints_taken > 0
    fired = {
        "rounds": bg_writer.rounds,
        "bg_pages": bg_writer.pages_flushed,
        "checkpoints": checkpointer.checkpoints_taken,
        "checkpoint_pages": checkpointer.pages_flushed,
    }
    return fingerprint(manager, metrics) | fired, len(calls)


@pytest.mark.parametrize("stack", (*STACKS, "background"))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_transactions_replay_matches_per_request(policy_name, variant, stack):
    """``run_transactions``, background processes or not: one ``replay``
    per transaction, one CPU charge, the commit flush, the tick — against
    ``access`` per request and, with the processes attached, against the
    request-by-request charging the float clock once made necessary.  A
    disarmed fault plan is never turbo-ready: both sides step."""
    fast, fast_calls = run_transactions_one(
        policy_name, variant, stack=stack, force_slow=False
    )
    slow, slow_calls = run_transactions_one(
        policy_name, variant, stack=stack, force_slow=True
    )
    assert fast == slow
    fast_steps = fast["ops"] if stack == "faultplan" else 0
    assert (fast_calls, slow_calls) == (fast_steps, fast["ops"])
    assert fast["transactions"] == len(TRANSACTIONS)
    assert fast["buffer"]["misses"] > CAPACITY
    if stack in ("wal", "background"):
        assert fast["wal_pages_written"] > 0
    if stack == "background":
        stepped, _ = run_transactions_one(
            policy_name, variant, stack=stack, force_slow=False, stepped=True
        )
        assert fast == stepped


@pytest.mark.parametrize("policy_name", ["lru", "clock", "lfu"])
def test_turbo_baseline_matches_per_request(policy_name):
    """Bare baseline stack: the fully inlined miss path vs access()."""
    fast = run_one(policy_name, "baseline", stack="bare", force_slow=False, ops=2500)
    slow = run_one(policy_name, "baseline", stack="bare", force_slow=True, ops=2500)
    assert fast == slow


def test_hit_run_path_with_wal_matches_per_request():
    """A WAL stack — turbo-ready since WALs without a ``flush_hook`` are —
    agrees with the per-request path."""
    fast = run_one("lru", "baseline", stack="wal", force_slow=False, ops=2500)
    slow = run_one("lru", "baseline", stack="wal", force_slow=True, ops=2500)
    assert fast == slow


@pytest.mark.parametrize("variant", ["ace", "ace+pf"])
def test_ace_hit_run_matches_per_request(variant):
    fast = run_one("lru", variant, stack="wal", force_slow=False, ops=2500)
    slow = run_one("lru", variant, stack="wal", force_slow=True, ops=2500)
    assert fast == slow


def _error_parity(variant, prepare, error):
    """Both replays fail alike: same exception, same state left behind.

    The inlined executor batches commuting counters in locals; on an
    exception those batches flush in ``finally`` so the counters must
    cover exactly the requests that completed — the same totals the
    per-request path leaves behind.
    """
    results = []
    for force_slow in (False, True):
        manager = build("lru", variant)
        trace = prepare(manager)
        with per_request(force_slow), pytest.raises(error) as raised:
            run_trace(manager, trace, options=OPTIONS)
        results.append((str(raised.value), state(manager)))
    assert results[0] == results[1]


def _out_of_range_trace(manager):
    trace = generate_trace(MS, NUM_PAGES, 600, seed=3)
    trace.pages[450] = NUM_PAGES + 7  # beyond the device
    return trace


def _all_pinned_trace(manager):
    for page in range(CAPACITY):
        manager.read_page(page)
        manager.pin(page)
    trace = generate_trace(MS, NUM_PAGES, 50, seed=5)
    trace.pages[0] = CAPACITY + 1  # guaranteed miss, no victim
    return trace


def _pinned_writes_then_miss(manager):
    """Writes (pages repeat) land on pinned, resident pages, then a miss
    finds every frame pinned: the log holds writes when the replay raises."""
    for page in range(CAPACITY):
        manager.read_page(page)
        manager.pin(page)
    pages = [3, 5, 3, 7, 3, 9, 5, CAPACITY + 1, 11]
    return Trace(pages, [page != 7 for page in pages], "pinned")


@pytest.mark.parametrize(
    "prepare", [_pinned_writes_then_miss, _out_of_range_trace],
    ids=["pinned", "out-of-range"],
)
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_a_raising_replay_leaves_the_same_log(variant, prepare):
    """The turbo loop logs the stretch in its ``finally``: after a raise the
    durable log and the buffered one (compared after a flush) are what
    ``log_update`` per write left — the failing request logged nothing."""
    results = []
    for force_slow in (False, True):
        manager = build("lru", variant, stack="wal")
        trace = prepare(manager)
        with per_request(force_slow), pytest.raises(
            (PoolExhaustedError, IndexError)
        ) as raised:
            run_trace(manager, trace, options=OPTIONS)
        results.append((str(raised.value), manager.wal.durable_lsn, state(manager)))
    assert results[0] == results[1]
    logged = results[0][2]["wal"]["records"]
    if prepare is _pinned_writes_then_miss:
        assert [(r.page, r.payload) for r in logged] == [
            (3, 1), (5, 1), (3, 2), (3, 3), (9, 1), (5, 2)
        ]


@pytest.mark.parametrize("prefetcher_name", ["composite", "recording"])
@pytest.mark.parametrize(
    "prepare", [_pinned_writes_then_miss, _out_of_range_trace],
    ids=["pinned", "out-of-range"],
)
@pytest.mark.parametrize("stack", ["bare", "wal"])
def test_a_raising_replay_trains_the_same_prefetcher(stack, prepare, prefetcher_name):
    """A Reader stack's turbo loop trains the observer at each miss and in
    its ``finally``: after a raise the prefetcher holds what per-request
    ``observe`` calls left — the history rows and TaP table, or the exact
    hook sequence — and the failing request was heard by ``on_miss`` only."""
    results = []
    for force_slow in (False, True):
        storage = stack_device()
        prefetcher = (
            CompositePrefetcher(max_page=NUM_PAGES)
            if prefetcher_name == "composite" else RecordingPrefetcher()
        )
        manager = build_manager(
            storage, CAPACITY, "lru", "ace+pf", prefetcher=prefetcher,
            wal=WriteAheadLog(storage.clock) if stack == "wal" else None,
            sanitize=False,
        )
        trace = prepare(manager)
        with per_request(force_slow), pytest.raises(
            (PoolExhaustedError, IndexError)
        ) as raised:
            run_trace(manager, trace, options=OPTIONS)
        results.append((
            str(raised.value), state(manager), prefetcher_state(prefetcher),
            getattr(prefetcher, "calls", None),
        ))
    assert results[0] == results[1]
    calls = results[0][3]
    if calls is not None:
        failing = CAPACITY + 1 if prepare is _pinned_writes_then_miss else NUM_PAGES + 7
        assert ("on_miss", failing) in calls and ("observe", failing) not in calls


def test_fast_path_error_parity():
    """A mid-trace out-of-range page fails identically on both paths."""
    _error_parity("baseline", _out_of_range_trace, IndexError)


def test_pool_exhaustion_error_parity():
    """Every frame pinned: the next miss raises the same way on both paths."""
    _error_parity("baseline", _all_pinned_trace, PoolExhaustedError)


def test_ace_fast_path_error_parity():
    _error_parity("ace", _out_of_range_trace, IndexError)


def test_ace_pool_exhaustion_error_parity():
    _error_parity("ace", _all_pinned_trace, PoolExhaustedError)


@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_transactions_error_parity(variant):
    """An out-of-range page in the middle of a transaction: same exception,
    same counters and pool left behind, the earlier commits included."""
    transactions = [(kind, list(requests)) for kind, requests in TRANSACTIONS]
    requests = transactions[30][1]
    requests[len(requests) // 2] = PageRequest(NUM_PAGES + 7, False)
    results = []
    for force_slow in (False, True):
        manager = build("lru", variant, stack="wal")
        with per_request(force_slow), pytest.raises(IndexError) as raised:
            run_transactions(manager, transactions, options=OPTIONS)
        results.append((str(raised.value), state(manager)))
    assert results[0] == results[1]
    assert results[0][1]["buffer"]["misses"] > CAPACITY


def _adaptive_runs(with_wal):
    """(tuner state, fingerprint) of an AdaptiveACE run, fast and per request."""
    results = []
    for force_slow in (False, True):
        device = stack_device()
        manager = AdaptiveACEBufferPoolManager(
            CAPACITY, make_policy("lru", CAPACITY), device,
            wal=WriteAheadLog(device.clock) if with_wal else None,
            explore_pages=32, exploit_pages=256,
        )
        trace = generate_trace(MS, NUM_PAGES, 4000, seed=7)
        with per_request(force_slow):
            metrics = run_trace(manager, trace, options=OPTIONS)
        results.append((
            manager.measured_costs(), manager.current_n_w, manager.reprobes,
            fingerprint(manager, metrics),
        ))
    assert results[0] == results[1]
    assert len(results[0][3]["device"]["write_batch_size_histogram"]) > 2
    return results[0]


def test_adaptive_ace_tunes_alike_on_both_paths():
    """``n_w`` is retuned mid-run: the turbo loop must never cache it."""
    _adaptive_runs(with_wal=False)


def test_adaptive_ace_with_a_wal_tunes_alike_on_both_paths():
    """The tuner times each ``_write_back``, WAL flush included: the turbo
    loop must append the log *before* the timed call, as ``log_update``
    per write would have, or the measured costs (and ``n_w``) drift."""
    costs, _, _, state = _adaptive_runs(with_wal=True)
    assert state["wal"]["device"]["writes"] > 0
    assert _adaptive_runs(with_wal=False)[0] != costs  # the log is timed


class _OverridingManager(BufferPoolManager):
    def _handle_miss(self, page):
        return super()._handle_miss(page)


def _observed(manager):
    manager._observer = lambda page: None
    return manager


def _hooked(manager):
    manager.wal.flush_hook = lambda records: None  # sees every page, tears none
    return manager


#: label -> (manager factory, functions a replay must enter, out of
#: ``turbo`` / ``access`` / ``handle_miss``[, how the manager is driven]).
#: One shard, primary + one replica, no faults: commit-to-commit segments.
_REPLICATED = ClusterConfig(
    profile=PCIE_SSD, policy="lru", variant="ace", num_pages=NUM_PAGES,
    num_shards=1, replication_factor=1,
    options=ExecutionOptions(cpu_us_per_op=3.0, commit_every_ops=32),
)

#: The reference arm: ``manager.access`` per request, misses in the routine.
STEPPED = {"access", "handle_miss"}

PATHS = {
    "bare baseline": (lambda: build("lru", "baseline"), {"turbo"}),
    "warm-up": (
        lambda: build("lru", "ace"), {"turbo"},
        lambda manager, trace: run_trace(
            manager, trace, options=OPTIONS, warmup_ops=120
        ),
    ),
    "transactions": (
        lambda: build("lru", "ace"), {"turbo"},
        lambda manager, trace: run_transactions(
            manager, TRANSACTIONS[:12], options=OPTIONS
        ),
    ),
    "transactions with a wal": (
        lambda: build("lru", "ace", stack="wal"), {"turbo"},
        lambda manager, trace: run_transactions(
            manager, TRANSACTIONS[:12], options=OPTIONS
        ),
    ),
    "transactions with a background writer": (
        lambda: build("lru", "ace", stack="wal"), {"turbo"},
        lambda manager, trace: run_transactions(
            manager, TRANSACTIONS[:12], options=BACKGROUND_OPTIONS,
            bg_writer=BackgroundWriter(manager, pages_per_round=8),
        ),
    ),
    "replicated shard": (
        lambda: None, {"turbo"},
        lambda manager, trace: run_cluster(_REPLICATED, trace, workers=1),
    ),
    "bare ace": (lambda: build("clock", "ace"), {"turbo"}),
    "wal": (lambda: build("lru", "ace", stack="wal"), {"turbo"}),
    "wal with a flush_hook": (
        lambda: _hooked(build("lru", "ace", stack="wal")), STEPPED,
    ),
    "disarmed fault plan": (
        lambda: build("lru", "ace", stack="faultplan"), STEPPED,
    ),
    "observer": (lambda: _observed(build("lru", "ace")), {"turbo"}),
    "reader": (lambda: build("lru", "ace+pf"), {"turbo"}),
    "reader that only trains": (
        lambda: build_manager(
            stack_device(), CAPACITY, "lru", "ace",
            prefetcher=NullPrefetcher(), sanitize=False,
        ),
        {"turbo"},
    ),
    "reader on a disarmed FaultPlan": (
        lambda: build("lru", "ace+pf", stack="faultplan"), STEPPED,
    ),
    "sanitizer": (lambda: build("lru", "ace", sanitize=True), STEPPED),
    "subclass": (
        lambda: _OverridingManager(
            CAPACITY, make_policy("lru", CAPACITY), stack_device(), sanitize=False
        ),
        STEPPED,
    ),
}


@pytest.mark.parametrize("label", PATHS)
def test_which_path_replays(label, monkeypatch):
    """Pin the dispatch: bare stacks — a Reader or an observer included —
    never leave the turbo loop (no ``_handle_miss`` call at all) — warming
    up and between commit points too; a wrapped device, a hooked WAL, an
    overriding subclass or a sanitised stack falls back to ``manager.access``
    — and only then: a background writer or a replica group no longer makes
    a stretch step."""
    # The replica group builds its own stacks: like every other row, never
    # sanitised by the environment.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    entered = set()

    def recording(name, original):
        def wrapper(*args, **kwargs):
            entered.add(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        BufferPoolManager, "_handle_miss",
        recording("handle_miss", BufferPoolManager._handle_miss),
    )
    monkeypatch.setattr(
        executor, "_replay_turbo", recording("turbo", executor._replay_turbo)
    )
    monkeypatch.setattr(
        BufferPoolManager, "access", recording("access", BufferPoolManager.access)
    )
    factory, expected, *drive = PATHS[label]
    trace = generate_trace(MS, NUM_PAGES, 300, seed=2)
    if drive:
        drive[0](factory(), trace)
    else:
        run_trace(factory(), trace, options=OPTIONS)
    assert entered == expected


def test_reader_stack_leaves_the_inlined_branch_only_to_prefetch():
    """Bare device: ``reader.fetch`` is reached with a non-empty prefetch
    set only, into free frames or after the wide (dirty-victim) exchange;
    every other miss, an empty wide exchange's included, ends in the
    plain single-page read."""
    manager = build("lru", "ace+pf")
    exchanged, fetches = [], []
    exchange, fetch = manager._exchange_wide, manager.reader.fetch

    def recording_exchange(victim):
        exchanged.append(victim)
        return exchange(victim)

    def recording_fetch(page, prefetch_pages):
        assert prefetch_pages
        fetches.append(page)
        return fetch(page, prefetch_pages)

    manager._exchange_wide = recording_exchange
    manager.reader.fetch = recording_fetch  # looked up per call, like perfbench's
    run_trace(manager, generate_trace(MS, NUM_PAGES, 1500, seed=2), options=OPTIONS)
    assert 0 < len(fetches) < len(exchanged) < manager.stats.misses / 2
    assert manager.device.stats.read_batches == manager.stats.misses


#: How a run is driven: one stretch, latencies (a stall list, so the
#: stretch breaks after every miss), or a background writer's deadlines.
DRIVES = ("untimed", "latencies", "deadlines")


def _empty_wide_exchange_run(with_wal, drive, force_slow):
    """An ACE+PF stack whose prefetcher never suggests anything, so every
    dirty victim is a wide exchange with an empty prefetch set: the
    fingerprint it leaves, and the reads the Reader and device were asked
    for as batches."""
    storage = stack_device()
    manager = build_manager(
        storage, CAPACITY, "lru", "ace+pf",
        wal=WriteAheadLog(storage.clock) if with_wal else None,
        prefetcher=NullPrefetcher(), sanitize=False,
    )
    batched = []
    fetch, read_batch = manager.reader.fetch, storage.read_batch

    def recording_fetch(page, prefetch_pages):
        batched.append(("fetch", page))
        return fetch(page, prefetch_pages)

    def recording_read_batch(pages):
        batched.append(("read_batch", *pages))
        return read_batch(pages)

    manager.reader.fetch = recording_fetch
    storage.read_batch = recording_read_batch
    trace = generate_trace(MS, NUM_PAGES, 1500, seed=3)
    latencies = LatencyRecorder() if drive == "latencies" else None
    bg_writer = (
        BackgroundWriter(manager, pages_per_round=4) if drive == "deadlines" else None
    )
    with per_request(force_slow):
        metrics = run_trace(
            manager, trace, options=BACKGROUND_OPTIONS, latencies=latencies,
            bg_writer=bg_writer,
        )
    result = fingerprint(manager, metrics)
    if latencies is not None:
        result["latencies"] = latencies._samples_us
    if bg_writer is not None:
        assert bg_writer.rounds > 0
        result["bg_pages"] = bg_writer.pages_flushed
    return result, batched


@pytest.mark.parametrize("drive", DRIVES)
@pytest.mark.parametrize("with_wal", [False, True], ids=["no_wal", "wal"])
def test_an_empty_wide_exchange_reads_alone(with_wal, drive):
    """The wide exchange's second exit: with nothing to prefetch, the
    inlined loop reads the missed page itself, as at a free frame, where
    the reference arm reads a batch of one through ``Reader.fetch`` — the
    state, counters and clock both leave must agree to the byte."""
    fast, fast_batched = _empty_wide_exchange_run(with_wal, drive, force_slow=False)
    slow, slow_batched = _empty_wide_exchange_run(with_wal, drive, force_slow=True)
    assert fast == slow
    buffer, device = fast["buffer"], fast["device"]
    assert buffer["dirty_evictions"] > 0
    assert device["largest_write_batch"] > 1
    assert device["reads"] == device["read_batches"] == buffer["misses"]
    assert fast_batched == []
    # The reference arm: a batch of one per Reader miss, each wide exchange's
    # and each free frame's.
    fetched = slow_batched[::2]
    assert slow_batched[1::2] == [("read_batch", page) for _, page in fetched]
    assert len(fetched) > buffer["dirty_evictions"]
    if with_wal:
        assert fast["wal"]["device"]["writes"] > 0


# ------------------------------------------ the two spellings, Reader stacks

PREFETCHERS = {
    "composite": lambda: CompositePrefetcher(max_page=NUM_PAGES),
    "npl": lambda: NPLPrefetcher(4, max_page=NUM_PAGES),
    "null": NullPrefetcher,
}


def prefetcher_state(prefetcher):
    if not isinstance(prefetcher, CompositePrefetcher):
        return None  # the lookahead prefetchers keep no state
    history, tap = prefetcher.history, prefetcher.sequential
    return {
        "rows": [history.row(page) for page in range(NUM_PAGES)],
        "trained_pairs": history.trained_pairs,
        "tap": list(tap.table_contents().items()),  # FIFO order included
        "streams_detected": tap.streams_detected,
        "suggestions": (
            prefetcher.sequential_suggestions, prefetcher.history_suggestions
        ),
    }


#: MS turns the pool over with dirty pages; the scan that follows is what
#: a prefetcher is for (and runs wide exchanges over MS's dirty leftovers).
SCAN = Trace(
    list(range(NUM_PAGES)) * 2, [page % 7 == 0 for page in range(NUM_PAGES)] * 2,
    "scan",
)


def _reader_branches(policy_name, prefetcher_name, placement, with_wal):
    """Bare device vs disarmed ``FaultPlan``, one ACE+PF stack each: the
    fingerprint both leave behind after MS and then the scan."""
    results = []
    for stack in ("bare", "faultplan"):
        storage = stack_device(stack)
        manager = ACEBufferPoolManager(
            CAPACITY, make_policy(policy_name, CAPACITY), storage,
            wal=WriteAheadLog(storage.clock) if with_wal else None,
            config=ACEConfig(
                n_w=4, n_e=4, prefetch_enabled=True, prefetch_placement=placement
            ),
            prefetcher=PREFETCHERS[prefetcher_name](), sanitize=False,
        )
        runs = [
            run_trace(manager, trace, options=OPTIONS, label=trace.name)
            for trace in (generate_trace(MS, NUM_PAGES, 1200, seed=11), SCAN)
        ]
        results.append((
            [dataclasses.asdict(metrics) for metrics in runs],
            state(manager), prefetcher_state(manager.reader.prefetcher),
        ))
    assert results[0] == results[1]
    buffer, device = results[0][1]["buffer"], results[0][1]["device"]
    assert device["reads"] == buffer["misses"] + buffer["prefetch_issued"]
    if prefetcher_name != "null":
        assert buffer["prefetch_hits"] > 0
        assert device["largest_read_batch"] > 1
    return results[0][1]


@pytest.mark.parametrize("placement", ["cold", "hot"])
@pytest.mark.parametrize("prefetcher_name", PREFETCHERS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_reader_branches_agree(policy_name, prefetcher_name, placement):
    """Bare device (the turbo loop) vs disarmed ``FaultPlan`` (``access``
    per request, the miss routine's helpers): the Reader's hooks spelled
    out twice, prefetcher state and placement included."""
    _reader_branches(policy_name, prefetcher_name, placement, with_wal=False)


@pytest.mark.parametrize("prefetcher_name", PREFETCHERS)
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_reader_branches_agree_with_a_wal(policy_name, prefetcher_name):
    """The same, both stacks logging: the turbo loop's appends must land
    where ``log_update`` per write would have — before the wide exchange's
    write-back flushes the log.  (Placement moves prefetched pages, not
    the log: the default, cold, stands for both.)"""
    log = _reader_branches(policy_name, prefetcher_name, "cold", with_wal=True)["wal"]
    assert log["records"] and log["device"]["writes"] > 0


class RecordingPrefetcher(NPLPrefetcher):
    """Lookahead of 4 that logs every hook call it receives."""

    def __init__(self):
        super().__init__(4, max_page=NUM_PAGES)
        self.calls = []

    def observe(self, page):
        self.calls.append(("observe", page))

    def on_miss(self, page):
        self.calls.append(("on_miss", page))

    def suggest(self, page, n):
        self.calls.append(("suggest", page))
        return super().suggest(page, n)


@pytest.mark.parametrize("stack", ["bare", "faultplan"])
def test_prefetcher_hears_the_same_hooks_on_every_replay(stack):
    trace = generate_trace(MS, NUM_PAGES, 1500, seed=4)
    heard = []
    for force_slow in (False, True):
        prefetcher = RecordingPrefetcher()
        manager = build_manager(
            stack_device(stack), CAPACITY, "lru", "ace+pf",
            prefetcher=prefetcher, sanitize=False,
        )
        with per_request(force_slow):
            run_trace(manager, trace, options=OPTIONS)
        heard.append(prefetcher.calls)
        on_misses = sum(hook == "on_miss" for hook, _ in prefetcher.calls)
        assert on_misses == manager.stats.misses
    assert heard[0] == heard[1]
    observed = [page for hook, page in heard[0] if hook == "observe"]
    assert observed == trace.pages  # exactly one per access, in order
    # A miss is on_miss [-> suggest] -> observe, all for the one page:
    # ``on_miss`` comes first and ``observe`` closes the access.
    for (hook, page), (_, following) in zip(heard[0], heard[0][1:]):
        if hook != "observe":
            assert following == page


# ------------------------------------------------------ the reference pool


class ReferencePool:
    """Textbook LRU pool; ``n_w`` is ACE's one change (``None`` = classic).

    A miss on a full pool evicts the least recently used unpinned page; if
    it is dirty it is written back first — alone, or under ACE together
    with the next dirty unpinned pages in LRU order, ``n_w`` in all.  With
    prefetching (``n_e`` > 1) the dirty victim takes the first ``n_e``
    unpinned pages with it, their dirty members joining the same batch.
    """

    def __init__(self, capacity, n_w=None, n_e=1):
        self.capacity, self.n_w, self.n_e = capacity, n_w, n_e
        self.order = OrderedDict()  # page -> payload, LRU first
        self.dirty, self.pinned, self.device = set(), set(), {}
        self.hits = self.misses = self.writebacks = self.batches = 0

    def write_back(self, pages):
        for page in pages:
            self.device[page] = self.order[page]
        self.dirty.difference_update(pages)
        self.writebacks += len(pages)
        self.batches += 1

    def access(self, page, is_write):
        if page in self.order:
            self.hits += 1
            self.order.move_to_end(page)
        else:
            self.misses += 1
            if len(self.order) == self.capacity:
                unpinned = [p for p in self.order if p not in self.pinned]
                doomed = unpinned[:1]
                if doomed[0] in self.dirty:
                    queue = [p for p in unpinned if p in self.dirty][: self.n_w or 1]
                    doomed = unpinned[: self.n_e]
                    self.write_back(
                        queue + [p for p in doomed if p in self.dirty and p not in queue]
                    )
                for page_out in doomed:
                    del self.order[page_out]
            self.order[page] = self.device.get(page, 0)
        if is_write:
            self.order[page] += 1
            self.dirty.add(page)

    def flush(self, page):
        if page in self.dirty:
            self.write_back([page])


OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "write", "pin", "unpin", "flush"]),
        st.integers(0, 23),
    ),
    max_size=150,
)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_manager_matches_reference_pool(variant, ops):
    capacity = 6
    n_e = 2 if variant == "ace+pf" else 1
    manager = build_manager(
        stack_device(), capacity, "lru", variant, n_w=3, n_e=n_e,
        prefetcher=NullPrefetcher() if variant == "ace+pf" else None,
    )
    model = ReferencePool(
        capacity, n_w=None if variant == "baseline" else 3, n_e=n_e
    )
    for op, index in ops:
        if op in ("read", "write"):
            manager.access(index, op == "write")
            model.access(index, op == "write")
            continue
        if not model.order:
            continue
        # The other operations take a resident page, chosen by position.
        page = list(model.order)[index % len(model.order)]
        if op == "pin":
            if page not in model.pinned and len(model.pinned) < capacity - 1:
                manager.pin(page)
                model.pinned.add(page)
        elif op == "unpin":
            if page in model.pinned:
                manager.unpin(page)
                model.pinned.discard(page)
        else:
            manager.flush_page(page)
            model.flush(page)
    stats = manager.stats
    assert (stats.hits, stats.misses) == (model.hits, model.misses)
    assert (stats.writebacks, stats.writeback_batches) == (
        model.writebacks, model.batches
    )
    assert sorted(manager.resident_pages()) == sorted(model.order)
    assert manager.dirty_pages() == sorted(model.dirty)
    assert manager.pool_pressure == len(model.dirty | model.pinned) / capacity
    assert manager.device.snapshot_payloads() == (
        dict.fromkeys(range(NUM_PAGES), 0) | model.device
    )
    assert manager.device.stats.reads == stats.misses + stats.prefetch_issued


# ------------------------------------------------- the prefetchers' kernels


class FirstHistory(HistoryPrefetcher):
    """``observe``/``suggest`` as first written (paper Fig. 7), step by step."""

    ties = 0  # weakest-slot picks decided by position
    passed_over = 0  # successors that cleared the threshold but were excluded

    def observe(self, page):
        previous, self._previous_page = self._previous_page, page
        if previous is None or previous == page:
            return
        self.trained_pairs += 1
        row = self._table.get(previous)
        if row is None:
            self._table[previous] = ([page], [1])
            return
        next_pages, weights = row
        if page in next_pages:
            index = next_pages.index(page)
            if weights[index] < self.max_weight:
                weights[index] += 1
            return
        if len(next_pages) < self.candidates_per_page:
            next_pages.append(page)
            weights.append(1)
            return
        weakest = min(range(len(weights)), key=weights.__getitem__)
        self.ties += weights.count(weights[weakest]) > 1
        if weights[weakest] == 0:
            next_pages[weakest] = page
            weights[weakest] = 1
        else:
            weights[weakest] -= 1

    def best_successor(self, page, exclude):
        best, best_weight = None, self.fetch_threshold - 1
        for candidate, weight in zip(*self._table.get(page, ((), ()))):
            if candidate in exclude:
                self.passed_over += weight >= self.fetch_threshold
                continue
            if weight > best_weight:
                best, best_weight = candidate, weight
        return best

    def suggest(self, page, n):
        suggestions, exclude, current = [], {page}, page
        for _ in range(n):
            successor = self.best_successor(current, exclude)
            if successor is None:
                break
            suggestions.append(successor)
            exclude.add(successor)
            current = successor
        return suggestions


class FirstTaP(TaPPrefetcher):
    """``on_miss``/``suggest`` as first written, through one ``_insert``
    (membership test, ``max``, ``while``) and ``in_stream``."""

    def on_miss(self, page):
        self._active_stream_page = None
        length = self._table.pop(page, None)
        if length is None:
            self._insert(page + 1, 1)
            return
        new_length = length + 1
        self._insert(page + 1, new_length)
        if new_length >= self.trigger_length:
            if new_length == self.trigger_length:
                self.streams_detected += 1
            self._active_stream_page = page
            self._active_stream_length = new_length

    def suggest(self, page, n):
        if not self.in_stream(page):
            return []
        suggestions = [page + offset for offset in range(1, n + 1)]
        if self.max_page is not None:
            suggestions = [p for p in suggestions if p < self.max_page]
        if suggestions:
            self._insert(
                suggestions[-1] + 1, self._active_stream_length + len(suggestions)
            )
        return suggestions

    def _insert(self, expected_page, length):
        if expected_page in self._table:
            length = max(length, self._table.pop(expected_page))
        self._table[expected_page] = length
        while len(self._table) > self.table_size:
            self._table.popitem(last=False)


def _check_history_kernel(candidates_per_page, fetch_threshold):
    """Drive the kernel and ``FirstHistory`` side by side; return the latter."""
    rng = random.Random(5)
    pages = range(14)
    kernel, first = (
        cls(candidates_per_page, fetch_threshold, max_weight=5)
        for cls in (HistoryPrefetcher, FirstHistory)
    )
    for step in range(5000):
        # Skewed, so weights climb to the cap while cold slots tie at 0/1.
        page = rng.choice(pages[:4]) if rng.random() < 0.6 else rng.choice(pages)
        kernel.observe(page)
        first.observe(page)
        assert kernel.row(page) == first.row(page)
        if step % 10 == 0:
            for start in pages:
                chain = kernel.suggest(start, 5)
                assert chain == first.suggest(start, 5)
                assert None not in chain  # an empty slot never clears
                assert chain[:2] == kernel.suggest(start, 2)
                assert chain[:1] == kernel.suggest(start, 1)
                assert kernel.suggest(start, 0) == []
    rows = [kernel.row(p) for p in pages]
    assert rows == [first.row(p) for p in pages]
    # ``row`` shows the filled slots only; the table keeps full-width rows.
    assert all(None not in row[0] for row in rows if row is not None)
    assert all(
        len(row[0]) == candidates_per_page for row in kernel._table.values()
    )
    assert kernel.table_size() == first.table_size()
    assert kernel.trained_pairs == first.trained_pairs > 4000
    return first


def test_history_kernel_matches_its_first_definition():
    first = _check_history_kernel(3, 2)  # the default width and threshold
    assert first.ties > 50 and first.passed_over > 50


@pytest.mark.parametrize("fetch_threshold", [1, 2])
@pytest.mark.parametrize("candidates_per_page", [1, 2, 3, 5])
def test_history_kernel_matches_its_first_definition_at_every_width(
    candidates_per_page, fetch_threshold
):
    first = _check_history_kernel(candidates_per_page, fetch_threshold)
    if candidates_per_page > 1:  # one slot cannot tie
        assert first.ties > 30
    assert first.passed_over > 10


def test_tap_kernel_matches_its_first_definition():
    rng = random.Random(6)
    kernel, first = (cls(table_size=6, trigger_length=3, max_page=60)
                     for cls in (TaPPrefetcher, FirstTaP))
    page, overflowed, merged = 0, 0, 0
    for _ in range(5000):
        # Runs of sequential misses from random starts, often overlapping
        # (a shorter stream arriving where a longer one is expected).
        page = page + 1 if rng.random() < 0.7 and page < 59 else rng.randrange(60)
        before = first.table_contents()
        for tap in (kernel, first):
            tap.on_miss(page)
        overflowed += len(before) == 6 and page not in before
        merged += before.get(page + 1, 0) > before.get(page, 0) + 1
        assert kernel.in_stream(page) == first.in_stream(page)
        if rng.random() < 0.3:
            n = rng.choice((0, 1, 4, 9))  # 9: runs past ``max_page`` near its end
            assert kernel.suggest(page, n) == first.suggest(page, n)
        assert list(kernel.table_contents().items()) == list(
            first.table_contents().items()
        )
    assert kernel.streams_detected == first.streams_detected > 100
    assert overflowed > 100 and merged > 10
