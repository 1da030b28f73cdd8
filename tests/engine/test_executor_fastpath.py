"""Executor fast-path equivalence: inlined replay vs per-request replay.

On the grid of ``tests/differential.py`` (policy x variant x surrounding,
traces and transactions) forcing the per-request path must leave the state
byte-identical, clock and log included, and so must a replay that raises;
a bare device and a disarmed fault plan must agree the same way for the
Reader stacks, prefetcher state and hook calls included.  A Hypothesis
test holds the miss routine itself (LRU) to a reference pool that shares
no code with it, and the prefetchers' kernels are held to their first
definitions.
"""

from __future__ import annotations

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.background import BackgroundWriter
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.cluster.engine import ClusterConfig, run_cluster
from repro.core.adaptive import AdaptiveACEBufferPoolManager
from repro.core.stack import VARIANTS, build_manager
from repro.engine import executor
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.latency import LatencyRecorder
from repro.errors import PoolExhaustedError
from repro.policies.registry import make_policy
from repro.prefetch import HistoryPrefetcher, NPLPrefetcher, NullPrefetcher, TaPPrefetcher
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace
from repro.workloads.trace import PageRequest, Trace

from tests.differential import (
    ARMS, BACKGROUND_OPTIONS, CAPACITY, NUM_PAGES, OPTIONS, PREFETCHERS, READER_WORK,
    TRACE, TRANSACTIONS, TRANSACTIONS_WORK, Cell, Work, agreeing, build, fingerprint,
    on_both_arms, prefetcher_state, run_cell, stack_device, state, work_for,
)
from tests.policies.classic import EVERY_POLICY
from tests.policies.mru import MRU

#: The trace battery's surroundings (transactions add ``background``).
STACKS = ("bare", "wal", "ftl", "faultplan")


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy_name", EVERY_POLICY)
def test_fast_replay_matches_per_request(policy_name, variant, stack):
    """The oracle: every policy x variant x surrounding, both replays.  A
    disarmed fault plan is never turbo-ready: its one run steps request by
    request, against the bare cell's inlined run."""
    work = work_for(policy_name, TRACE)
    if stack == "faultplan":
        fast = run_cell(Cell(policy_name, variant), ARMS[0], work)
        assert run_cell(Cell(policy_name, variant, stack), ARMS[0], work) == fast
    else:
        fast = agreeing(Cell(policy_name, variant, stack), work)
    ready = executor._turbo_ready(build(policy_name, variant, surrounding=stack))
    assert ready is (stack != "faultplan")
    assert fast["buffer"]["misses"] > CAPACITY  # the pool did turn over
    if variant != "baseline":
        assert fast["device"]["largest_write_batch"] > 1


@pytest.mark.parametrize("stack", (*STACKS, "background"))
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy_name", EVERY_POLICY)
def test_transactions_replay_matches_per_request(policy_name, variant, stack):
    """``run_transactions``, background processes or not: one ``replay``
    per transaction, one CPU charge, the commit flush, the tick — against
    ``access`` per request and, with the processes attached, against the
    request-by-request charging the float clock once made necessary.  A
    disarmed fault plan is never turbo-ready: its one run steps, against
    the bare cell's inlined run."""
    cell = Cell(policy_name, variant, stack)
    work = work_for(policy_name, TRANSACTIONS_WORK)
    if stack == "faultplan":
        fast, slow = (
            dict(run_cell(Cell(policy_name, variant, surrounding), ARMS[0], work))
            for surrounding in ("bare", stack)
        )
    else:
        fast, slow = (dict(run_cell(cell, arm, work)) for arm in ARMS)
    calls = fast.pop("calls"), slow.pop("calls")
    assert fast == slow
    assert calls == (0, fast["ops"])
    assert fast["transactions"] == work.requests
    assert fast["buffer"]["misses"] > CAPACITY
    if stack in ("wal", "background"):
        assert fast["wal_pages_written"] > 0
    if stack == "background":
        assert fast["rounds"] > 0 and fast["checkpoints"] > 0
        stepped = dict(run_cell(cell, ARMS[0], work, stepped=True))
        assert stepped.pop("calls") == fast["ops"]
        assert fast == stepped


@pytest.mark.parametrize("policy_name", ["lru", "clock", "lfu", MRU])
def test_turbo_baseline_matches_per_request(policy_name):
    """Bare baseline stack: the fully inlined miss path vs access()."""
    agreeing(Cell(policy_name), Work("trace", 2500))


def test_hit_run_path_with_wal_matches_per_request():
    """A WAL stack — turbo-ready since WALs without a ``flush_hook`` are —
    agrees with the per-request path."""
    agreeing(Cell("lru", "baseline", "wal"), Work("trace", 2500))


@pytest.mark.parametrize("variant", ["ace", "ace+pf"])
def test_ace_hit_run_matches_per_request(variant):
    agreeing(Cell("lru", variant, "wal"), Work("trace", 2500))


def _raising(prepare, variant="baseline", stack="bare", prefetcher=None,
             error=(PoolExhaustedError, IndexError)):
    """Both replays of ``prepare``'s trace raise alike: the same exception,
    durable LSN, state, prefetcher state and hook calls.  The inlined loop
    flushes its counters in ``finally``: they cover the requests that
    completed, as on the per-request path."""
    def run():
        chosen = prefetcher and prefetcher()
        manager = build("lru", variant, surrounding=stack, prefetcher=chosen)
        trace = prepare(manager)
        with pytest.raises(error) as raised:
            run_trace(manager, trace, options=OPTIONS)
        return (
            str(raised.value), manager.wal and manager.wal.durable_lsn,
            state(manager), prefetcher_state(chosen), getattr(chosen, "calls", None),
        )

    fast, slow = on_both_arms(run)
    assert fast == slow
    return fast


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


RAISING = pytest.mark.parametrize(
    "prepare", [_pinned_writes_then_miss, _out_of_range_trace],
    ids=["pinned", "out-of-range"],
)


@RAISING
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_a_raising_replay_leaves_the_same_log(variant, prepare):
    """The turbo loop logs the stretch in its ``finally``: after a raise the
    durable log and the buffered one (compared after a flush) are what
    ``log_update`` per write left — the failing request logged nothing."""
    logged = _raising(prepare, variant, "wal")[2]["wal"]["records"]
    if prepare is _pinned_writes_then_miss:
        pairs = [(3, 1), (5, 1), (3, 2), (3, 3), (9, 1), (5, 2)]
        assert [(r.page, r.payload) for r in logged] == pairs


@pytest.mark.parametrize("prefetcher_name", ["composite", "recording"])
@RAISING
@pytest.mark.parametrize("stack", ["bare", "wal"])
def test_a_raising_replay_trains_the_same_prefetcher(stack, prepare, prefetcher_name):
    """A Reader stack's turbo loop trains the observer at each miss and in
    its ``finally``: after a raise the prefetcher holds what per-request
    ``observe`` calls left — the history rows and TaP table, or the exact
    hook sequence — and the failing request was heard by ``on_miss`` only."""
    prefetcher = PREFETCHERS.get(prefetcher_name, recording_prefetcher)
    calls = _raising(prepare, "ace+pf", stack, prefetcher)[4]
    if calls is not None:
        failing = CAPACITY + 1 if prepare is _pinned_writes_then_miss else NUM_PAGES + 7
        assert ("on_miss", failing) in calls and ("observe", failing) not in calls


def test_fast_path_error_parity():
    """A mid-trace out-of-range page fails identically on both paths."""
    _raising(_out_of_range_trace, error=IndexError)


def test_pool_exhaustion_error_parity():
    """Every frame pinned: the next miss raises the same way on both paths."""
    _raising(_all_pinned_trace, error=PoolExhaustedError)


def test_ace_fast_path_error_parity():
    _raising(_out_of_range_trace, "ace", error=IndexError)


def test_ace_pool_exhaustion_error_parity():
    _raising(_all_pinned_trace, "ace", error=PoolExhaustedError)


@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_transactions_error_parity(variant):
    """An out-of-range page in the middle of a transaction: same exception,
    same counters and pool left behind, the earlier commits included."""
    transactions = [(kind, list(requests)) for kind, requests in TRANSACTIONS]
    requests = transactions[30][1]
    requests[len(requests) // 2] = PageRequest(NUM_PAGES + 7, False)

    def run():
        manager = build("lru", variant, surrounding="wal")
        with pytest.raises(IndexError) as raised:
            run_transactions(manager, transactions, options=OPTIONS)
        return str(raised.value), state(manager)

    fast, slow = on_both_arms(run)
    assert fast == slow
    assert fast[1]["buffer"]["misses"] > CAPACITY


def _adaptive_runs(with_wal):
    """(tuner state, fingerprint) of an AdaptiveACE run, on both arms."""
    def run():
        device = stack_device()
        manager = AdaptiveACEBufferPoolManager(
            CAPACITY, make_policy("lru", CAPACITY), device,
            wal=WriteAheadLog(device.clock) if with_wal else None,
            explore_pages=32, exploit_pages=256,
        )
        metrics = run_trace(manager, generate_trace(MS, NUM_PAGES, 4000, seed=7), OPTIONS)
        tuned = manager.measured_costs(), manager.current_n_w, manager.reprobes
        return (*tuned, fingerprint(manager, metrics))

    fast, slow = on_both_arms(run)
    assert fast == slow
    assert len(fast[3]["device"]["write_batch_size_histogram"]) > 2
    return fast


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


def _transactions(options=OPTIONS, **processes):
    """Drive the first 12 transactions; ``processes`` build from the manager."""
    return lambda manager, trace: run_transactions(
        manager, TRANSACTIONS[:12], options=options,
        **{name: make(manager) for name, make in processes.items()},
    )


#: One shard, primary + one replica, no faults: commit-to-commit segments.
_REPLICATED = ClusterConfig(
    profile=PCIE_SSD, policy="lru", variant="ace", num_pages=NUM_PAGES,
    num_shards=1, replication_factor=1,
    options=ExecutionOptions(cpu_us_per_op=3.0, commit_every_ops=32),
)

#: The reference arm: ``manager.access`` per request, misses in the routine.
STEPPED = {"access", "_handle_miss"}
INLINED = {"_replay_turbo"}

#: label -> (manager factory, functions a replay must enter, out of
#: ``_replay_turbo`` / ``access`` / ``_handle_miss``[, how it is driven]).
PATHS = {
    "bare baseline": (lambda: build("lru", "baseline"), INLINED),
    "transactions": (lambda: build("lru", "ace"), INLINED, _transactions()),
    "transactions with a wal": (
        lambda: build("lru", "ace", surrounding="wal"), INLINED, _transactions(),
    ),
    "transactions with a background writer": (
        lambda: build("lru", "ace", surrounding="wal"), INLINED,
        _transactions(BACKGROUND_OPTIONS, bg_writer=lambda manager: BackgroundWriter(
            manager, pages_per_round=8
        )),
    ),
    "replicated shard": (
        lambda: None, INLINED,
        lambda manager, trace: run_cluster(_REPLICATED, trace, workers=1),
    ),
    "bare ace": (lambda: build("clock", "ace"), INLINED),
    "wal": (lambda: build("lru", "ace", surrounding="wal"), INLINED),
    "wal with a flush_hook": (
        lambda: _hooked(build("lru", "ace", surrounding="wal")), STEPPED,
    ),
    "disarmed fault plan": (lambda: build("lru", "ace", surrounding="faultplan"), STEPPED),
    "observer": (lambda: _observed(build("lru", "ace")), INLINED),
    "reader": (lambda: build("lru", "ace+pf"), INLINED),
    "reader that only trains": (
        lambda: build("lru", "ace", prefetcher=NullPrefetcher()), INLINED,
    ),
    "reader on a disarmed FaultPlan": (
        lambda: build("lru", "ace+pf", surrounding="faultplan"), STEPPED,
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
    never leave the turbo loop (no ``_handle_miss`` call at all), warming
    up and between commit points too; a wrapped device, a hooked WAL, an
    overriding subclass or a sanitised stack falls back to ``manager.access``,
    and only those: not a background writer, not a replica group (whose
    stacks, like every row's, the environment must not sanitise)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    calls = []
    for owner, name in ((BufferPoolManager, "_handle_miss"), (executor, "_replay_turbo"),
                        (BufferPoolManager, "access")):
        _recorded(owner, name, calls, monkeypatch.setattr)
    factory, expected, *drive = PATHS[label]
    trace = generate_trace(MS, NUM_PAGES, 300, seed=2)
    if drive:
        drive[0](factory(), trace)
    else:
        run_trace(factory(), trace, options=OPTIONS)
    assert {call[0] for call in calls} == expected


def _recorded(obj, name, calls, patch=setattr):
    """Log each call of ``obj.name`` in ``calls`` as ``(name, *args)``."""
    original = getattr(obj, name)

    def recording(*args):
        calls.append((name, *args))
        return original(*args)

    patch(obj, name, recording)


def test_reader_stack_leaves_the_inlined_branch_only_to_prefetch():
    """Bare device: ``reader.fetch`` is reached with a non-empty prefetch
    set only, into free frames or after the wide (dirty-victim) exchange;
    every other miss, an empty wide exchange's included, ends in the
    plain single-page read."""
    manager, calls = build("lru", "ace+pf"), []
    _recorded(manager, "_exchange_wide", calls)
    _recorded(manager.reader, "fetch", calls)
    run_trace(manager, generate_trace(MS, NUM_PAGES, 1500, seed=2), options=OPTIONS)
    fetches = [call for call in calls if call[0] == "fetch"]
    assert all(prefetch_pages for _, _, prefetch_pages in fetches)
    assert 0 < len(fetches) < len(calls) - len(fetches) < manager.stats.misses / 2
    assert manager.device.stats.read_batches == manager.stats.misses


def _empty_wide_exchange_run(with_wal, drive):
    """An ACE+PF stack whose prefetcher never suggests, so every dirty
    victim is a wide exchange with an empty prefetch set: its fingerprint,
    and the reads the Reader and device were asked for as batches."""
    manager = build("lru", "ace+pf", surrounding="wal" if with_wal else "bare",
                    prefetcher=NullPrefetcher())
    batched = []
    _recorded(manager.reader, "fetch", batched)
    _recorded(manager.device, "read_batch", batched)
    latencies = LatencyRecorder() if drive == "latencies" else None
    bg_writer = BackgroundWriter(manager, pages_per_round=4) if drive == "deadlines" else None
    metrics = run_trace(
        manager, generate_trace(MS, NUM_PAGES, 1500, seed=3), options=BACKGROUND_OPTIONS,
        latencies=latencies, bg_writer=bg_writer,
    )
    result = fingerprint(manager, metrics)
    if latencies is not None:
        result["latencies"] = latencies._samples_us
    if bg_writer is not None:
        assert bg_writer.rounds > 0
        result["bg_pages"] = bg_writer.pages_flushed
    return result, batched


#: How a run is driven: one stretch, latencies (a stall list, so the
#: stretch breaks after every miss), or a background writer's deadlines.
@pytest.mark.parametrize("drive", ("untimed", "latencies", "deadlines"))
@pytest.mark.parametrize("with_wal", [False, True], ids=["no_wal", "wal"])
def test_an_empty_wide_exchange_reads_alone(with_wal, drive):
    """The wide exchange's second exit: with nothing to prefetch, the
    inlined loop reads the missed page itself, as at a free frame, where
    the reference arm reads a batch of one through ``Reader.fetch`` — the
    state, counters and clock both leave must agree to the byte."""
    (fast, fast_batched), (slow, slow_batched) = on_both_arms(
        lambda: _empty_wide_exchange_run(with_wal, drive)
    )
    assert fast == slow
    buffer, device = fast["buffer"], fast["device"]
    assert buffer["dirty_evictions"] > 0
    assert device["largest_write_batch"] > 1
    assert device["reads"] == device["read_batches"] == buffer["misses"]
    assert fast_batched == []
    # The reference arm: a batch of one per Reader miss, each wide exchange's
    # and each free frame's.
    fetched = slow_batched[::2]
    assert slow_batched[1::2] == [("read_batch", [page]) for _, page, _ in fetched]
    assert len(fetched) > buffer["dirty_evictions"]
    if with_wal:
        assert fast["wal"]["device"]["writes"] > 0


@pytest.mark.parametrize("drive", ("latencies", "deadlines"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_wal_stack_under_stalls_and_deadlines_matches_per_request(variant, drive):
    """A WAL stack whose stretches break after every miss (a stalls list)
    or at a background writer's deadlines: the log appended where one
    stretch ends must still be flushed at the next stretch's first
    write-back, with no write in between."""

    def run():
        manager = build("lru", variant, surrounding="wal")
        latencies = LatencyRecorder() if drive == "latencies" else None
        bg_writer = (
            BackgroundWriter(manager, pages_per_round=4) if drive == "deadlines" else None
        )
        metrics = run_trace(
            manager, generate_trace(MS, NUM_PAGES, 1500, seed=3),
            options=BACKGROUND_OPTIONS, latencies=latencies, bg_writer=bg_writer,
        )
        result = fingerprint(manager, metrics)
        if latencies is not None:
            result["latencies"] = latencies._samples_us
        return result

    fast, slow = on_both_arms(run)
    assert fast == slow
    assert fast["buffer"]["dirty_evictions"] > 0
    assert fast["wal"]["device"]["writes"] > 0


# ------------------------------------------ the two spellings, Reader stacks


def _reader_branches(policy_name, prefetcher_name, placement, stacks):
    """What a bare device and a disarmed ``FaultPlan`` leave alike."""
    inlined, stepped = (
        run_cell(Cell(policy_name, "ace+pf", stack, False, prefetcher_name, placement),
                 ARMS[0], work_for(policy_name, READER_WORK))
        for stack in stacks
    )
    assert inlined == stepped
    buffer, device = inlined["state"]["buffer"], inlined["state"]["device"]
    assert device["reads"] == buffer["misses"] + buffer["prefetch_issued"]
    if prefetcher_name != "null":
        assert buffer["prefetch_hits"] > 0
        assert device["largest_read_batch"] > 1
    return inlined["state"]


@pytest.mark.parametrize("placement", ["cold", "hot"])
@pytest.mark.parametrize("prefetcher_name", PREFETCHERS)
@pytest.mark.parametrize("policy_name", EVERY_POLICY)
def test_reader_branches_agree(policy_name, prefetcher_name, placement):
    """Bare device (the turbo loop) vs disarmed ``FaultPlan`` (``access``
    per request, the miss routine's helpers): the Reader's hooks spelled
    out twice, prefetcher state and placement included."""
    _reader_branches(policy_name, prefetcher_name, placement, ("bare", "faultplan"))


@pytest.mark.parametrize("prefetcher_name", PREFETCHERS)
@pytest.mark.parametrize("policy_name", EVERY_POLICY)
def test_reader_branches_agree_with_a_wal(policy_name, prefetcher_name):
    """The same, both stacks logging: the turbo loop's appends must land
    where ``log_update`` per write would have, before the wide exchange's
    write-back flushes the log (placement does not move the log: cold)."""
    stacks = ("wal", "faultplan+wal")
    log = _reader_branches(policy_name, prefetcher_name, "cold", stacks)["wal"]
    assert log["records"] and log["device"]["writes"] > 0


def recording_prefetcher():
    """Lookahead of 4 that logs every hook call it receives in ``calls``."""
    prefetcher = NPLPrefetcher(4, max_page=NUM_PAGES)
    prefetcher.calls = []
    for hook in ("observe", "on_miss", "suggest"):
        _recorded(prefetcher, hook, prefetcher.calls)
    return prefetcher


@pytest.mark.parametrize("stack", ["bare", "faultplan"])
def test_prefetcher_hears_the_same_hooks_on_every_replay(stack):
    trace = generate_trace(MS, NUM_PAGES, 1500, seed=4)

    def run():
        manager = build("lru", "ace+pf", surrounding=stack,
                        prefetcher=recording_prefetcher())
        run_trace(manager, trace, options=OPTIONS)
        calls = manager.reader.prefetcher.calls
        assert sum(call[0] == "on_miss" for call in calls) == manager.stats.misses
        return calls

    fast, slow = on_both_arms(run)
    assert fast == slow
    observed = [page for hook, page, *_ in fast if hook == "observe"]
    assert observed == trace.pages  # exactly one per access, in order
    # A miss is on_miss [-> suggest] -> observe, all for the one page:
    # ``on_miss`` comes first and ``observe`` closes the access.
    for (hook, page, *_), (_, following, *_) in zip(fast, fast[1:]):
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


OPS = st.lists(st.tuples(
    st.sampled_from(["read", "write", "write", "pin", "unpin", "flush"]), st.integers(0, 23),
), max_size=150)


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
    model = ReferencePool(capacity, n_w=None if variant == "baseline" else 3, n_e=n_e)
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
    assert (stats.writebacks, stats.writeback_batches) == (model.writebacks, model.batches)
    assert sorted(manager.resident_pages()) == sorted(model.order)
    assert manager.dirty_pages() == sorted(model.dirty)
    assert manager.pool_pressure == len(model.dirty | model.pinned) / capacity
    payloads = dict.fromkeys(range(NUM_PAGES), 0) | model.device
    assert manager.device.snapshot_payloads() == payloads
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
