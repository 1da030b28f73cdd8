"""Executor fast-path equivalence: inlined replay vs per-request replay.

``run_trace`` resolves hit runs (and, for a bare Reader-less stack —
baseline or ACE — whole misses) inside the executor instead of calling
``manager.access`` per request.  That inlining is pure mechanics — forcing
the per-request path via the ``hit_run_ready`` handshake must leave every
observable output byte-identical: RunMetrics, device counters, virtual
clock, residency order, the policy's virtual order, dirty set, device
payloads, FTL counters, and WAL records.  A Hypothesis test then holds the
manager itself (LRU, baseline and ACE) to a reference pool that shares no
code with it.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.adaptive import AdaptiveACEBufferPoolManager
from repro.core.stack import VARIANTS, build_manager
from repro.engine import executor
from repro.engine.executor import ExecutionOptions, run_trace
from repro.errors import PoolExhaustedError
from repro.faults import FaultPlan, FaultyDevice
from repro.policies.registry import POLICY_NAMES, make_policy
from repro.workloads.synthetic import MS, generate_trace

from tests.bufferpool.conftest import make_device

NUM_PAGES = 400
CAPACITY = 32
OPTIONS = ExecutionOptions(cpu_us_per_op=3.0)

#: What surrounds the manager: nothing (the turbo loop's case), a WAL, an
#: FTL-backed device, a disarmed ``FaultPlan`` (the generic miss branch).
STACKS = ("bare", "wal", "ftl", "faultplan")


def stack_device(stack="bare"):
    device = make_device(NUM_PAGES, with_ftl=(stack == "ftl"))
    return FaultyDevice(device, FaultPlan()) if stack == "faultplan" else device


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
        "wal_records": None if wal is None else wal._records,
    }


def fingerprint(manager, metrics):
    return dataclasses.asdict(metrics) | state(manager)


def run_one(policy_name, variant, *, stack, force_slow, ops=1500, seed=11):
    manager = build(policy_name, variant, stack=stack)
    assert type(manager).hit_run_ready is True
    if force_slow:
        # Instance override defeats the handshake: run_trace falls back
        # to the per-request ``manager.access`` loop.
        manager.hit_run_ready = False
    trace = generate_trace(MS, NUM_PAGES, ops, seed=seed)
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


@pytest.mark.parametrize("policy_name", ["lru", "clock", "lfu"])
def test_turbo_baseline_matches_per_request(policy_name):
    """Bare baseline stack: the fully inlined miss path vs access()."""
    fast = run_one(policy_name, "baseline", stack="bare", force_slow=False, ops=2500)
    slow = run_one(policy_name, "baseline", stack="bare", force_slow=True, ops=2500)
    assert fast == slow


def test_hit_run_path_with_wal_matches_per_request():
    """A WAL disqualifies the turbo path; the hit-run path must agree too."""
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
        if force_slow:
            manager.hit_run_ready = False
        with pytest.raises(error) as raised:
            run_trace(manager, prepare(manager), options=OPTIONS)
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


def test_adaptive_ace_tunes_alike_on_both_paths():
    """``n_w`` is retuned mid-run: the turbo loop must never cache it."""
    results = []
    for force_slow in (False, True):
        manager = AdaptiveACEBufferPoolManager(
            CAPACITY, make_policy("lru", CAPACITY), stack_device(),
            explore_pages=32, exploit_pages=256,
        )
        if force_slow:
            manager.hit_run_ready = False
        trace = generate_trace(MS, NUM_PAGES, 4000, seed=7)
        metrics = run_trace(manager, trace, options=OPTIONS)
        results.append((
            manager.measured_costs(), manager.current_n_w, manager.reprobes,
            fingerprint(manager, metrics),
        ))
    assert results[0] == results[1]
    assert len(results[0][3]["device"]["write_batch_size_histogram"]) > 2


class _OverridingManager(BufferPoolManager):
    def _handle_miss(self, page):
        return super()._handle_miss(page)


def _observed(manager):
    manager._observer = lambda page: None
    return manager


#: label -> (manager factory, functions a replay must enter, out of
#: ``turbo`` / ``hit_runs`` / ``handle_miss``).
PATHS = {
    "bare baseline": (lambda: build("lru", "baseline"), {"turbo"}),
    "bare ace": (lambda: build("clock", "ace"), {"turbo"}),
    "wal": (lambda: build("lru", "ace", stack="wal"), {"hit_runs", "handle_miss"}),
    "disarmed fault plan": (
        lambda: build("lru", "ace", stack="faultplan"), {"hit_runs", "handle_miss"},
    ),
    "observer": (
        lambda: _observed(build("lru", "ace")), {"hit_runs", "handle_miss"},
    ),
    "reader": (lambda: build("lru", "ace+pf"), {"hit_runs"}),
    "sanitizer": (lambda: build("lru", "ace", sanitize=True), {"handle_miss"}),
    "subclass": (
        lambda: _OverridingManager(
            CAPACITY, make_policy("lru", CAPACITY), stack_device(), sanitize=False
        ),
        {"hit_runs", "handle_miss"},
    ),
}


@pytest.mark.parametrize("label", PATHS)
def test_which_path_replays(label, monkeypatch):
    """Pin the dispatch: bare Reader-less stacks never leave the turbo loop
    (no ``_handle_miss`` call at all); anything the loop cannot see falls
    back to the hit-run loop or, sanitised, to ``manager.access``."""
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
    for name in ("turbo", "hit_runs"):
        monkeypatch.setattr(
            executor, f"_replay_{name}",
            recording(name, getattr(executor, f"_replay_{name}")),
        )
    factory, expected = PATHS[label]
    run_trace(factory(), generate_trace(MS, NUM_PAGES, 300, seed=2), options=OPTIONS)
    assert entered == expected


# ------------------------------------------------------ the reference pool


class ReferencePool:
    """Textbook LRU pool; ``n_w`` is ACE's one change (``None`` = classic).

    A miss on a full pool evicts the least recently used unpinned page; if
    it is dirty it is written back first — alone, or under ACE together
    with the next dirty unpinned pages in LRU order, ``n_w`` in all.
    """

    def __init__(self, capacity, n_w=None):
        self.capacity, self.n_w = capacity, n_w
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
                victim = unpinned[0]
                if victim in self.dirty:
                    queue = [p for p in unpinned if p in self.dirty]
                    self.write_back(queue[: self.n_w or 1])
                del self.order[victim]
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


@pytest.mark.parametrize("variant", ["baseline", "ace"])
@settings(max_examples=60, deadline=None)
@given(ops=OPS)
def test_manager_matches_reference_pool(variant, ops):
    capacity = 6
    manager = build_manager(stack_device(), capacity, "lru", variant, n_w=3)
    model = ReferencePool(capacity, n_w=None if variant == "baseline" else 3)
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
