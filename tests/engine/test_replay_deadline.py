"""Replay until a deadline: one request loop for every caller.

``replay(manager, pages, writes, op_ticks, until_ticks, stalls)`` charges
each request ``op_ticks`` of CPU, stops after the first request whose end
reaches ``until_ticks`` and reports every request whose I/O moved the
clock.  The stepped callers — ``run_trace`` with latencies, background
processes or commit points, the serving layer's units, a replica group's
timed faults — are "replay to the next boundary, charge, act, repeat".
What holds them to the loops they replaced:

* stepped ``run_trace`` on a turbo-ready stack equals the forced
  reference arm and the request-by-request loop it replaced (kept here):
  metrics, latency samples in order, background rounds and checkpoints,
  scrub stats, the log, residency and dirty set;
* ``replay``'s edges agree on both arms and with that loop: the deadline
  crossed at a hit (after a miss that did not cross), at a miss, already
  due on entry, with no CPU charge, and a request that raises;
* a stretch with a page outside the device is handed off at that page:
  the inlined loop before it, the reference arm from it, unless the
  deadline fell first — and a negative page raises even on an unbounded
  device;
* each background timer names the exact first tick it fires at;
* on a bare stack none of those callers reaches ``manager.access``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.background import BackgroundWriter, Checkpointer, IdleScrubber
from repro.bufferpool.manager import BufferPoolManager
from repro.policies import LRUPolicy
from repro.cluster.engine import ClusterConfig, run_cluster
from repro.engine import executor
from repro.engine.executor import ExecutionOptions, RunSession, replay, run_trace
from repro.engine.latency import LatencyRecorder
from repro.engine.serving import ServingLayer
from repro.faults.nodes import NodeFault, NodeFaultPlan
from repro.storage.clock import tick_at, to_ticks, to_us
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace
from repro.workloads.trace import Trace

from tests.differential import (
    NUM_PAGES,
    TRANSACTIONS,
    build,
    per_request,
    state,
)

VARIANTS = ("baseline", "ace", "ace+pf")
STACKS = ("bare", "wal")
OP_TICKS = to_ticks(3.0)


class Samples(LatencyRecorder):
    """A recorder that keeps every sample it is given, in order."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def record(self, latency_us):
        super().record(latency_us)
        self.seen.append(latency_us)

    def extend(self, latencies_us):
        latencies_us = list(latencies_us)
        super().extend(latencies_us)
        self.seen += latencies_us


def _request_by_request(manager, trace, options, bg_writer, checkpointer, scrubber,
                        latencies):
    """The loop ``run_trace`` stepped with before ``replay`` took a
    deadline: every request charges its CPU, runs, may commit, records its
    latency, and the background processes look at the clock."""
    session = RunSession(manager, options, bg_writer, checkpointer, scrubber)
    clock = session.clock
    next_round_us = session.start_us + options.bg_writer_interval_us
    for index, (page, is_write) in enumerate(zip(trace.pages, trace.writes), 1):
        start = clock.ticks
        clock.ticks += to_ticks(options.cpu_us_per_op)
        manager.access(page, is_write)
        if options.commit_every_ops and index % options.commit_every_ops == 0:
            manager.wal.flush()
        latencies.record(to_us(clock.ticks - start))
        if clock.now_us >= next_round_us:
            bg_writer.run_round()
            next_round_us = clock.now_us + options.bg_writer_interval_us
        checkpointer.maybe_checkpoint()
        if scrubber is not None:
            scrubber.maybe_scrub()
    return session.finish(f"{manager.variant}/{trace.name}", ops=len(trace))


def _stepped_run(variant, stack, arm):
    manager = build("lru", variant, surrounding=stack)
    assert executor._turbo_ready(manager)
    wal = stack == "wal"
    options = ExecutionOptions(
        cpu_us_per_op=3.0, bg_writer_interval_us=4_000.0,
        checkpoint_interval_us=15_000.0, commit_every_ops=50 if wal else 0,
    )
    n_w = manager.writer.n_w if manager.writer is not None else 1
    bg_writer = BackgroundWriter(manager, pages_per_round=8, batch_size=n_w)
    checkpointer = Checkpointer(
        manager, interval_us=options.checkpoint_interval_us, batch_size=n_w
    )
    scrubber = IdleScrubber(manager, interval_us=7_000.0, pages_per_round=16) if wal else None
    latencies = Samples()
    trace = generate_trace(MS, NUM_PAGES, 1500, seed=11)
    if arm == "request by request":
        metrics = _request_by_request(
            manager, trace, options, bg_writer, checkpointer, scrubber, latencies
        )
    else:
        with per_request(arm == "reference arm"):
            metrics = run_trace(
                manager, trace, options, bg_writer, checkpointer,
                latencies=latencies, scrubber=scrubber,
            )
    return {
        "metrics": metrics,
        "latencies": latencies.seen,
        "rounds": (bg_writer.rounds, bg_writer.pages_flushed),
        "checkpoints": (
            checkpointer.checkpoints_taken, checkpointer.checkpoints_skipped,
            checkpointer.pages_flushed,
        ),
        "scrub": scrubber and scrubber.stats,
        **state(manager),
    }


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_stepped_run_trace_matches_request_by_request(variant, stack):
    """Latencies, a background writer, a checkpointer and — with a WAL —
    a scrubber and commit points, on the inlined loop."""
    turbo = _stepped_run(variant, stack, "inlined loop")
    assert turbo == _stepped_run(variant, stack, "reference arm")
    assert turbo == _stepped_run(variant, stack, "request by request")
    assert len(turbo["latencies"]) == 1500
    assert turbo["rounds"][0] > 5 and turbo["checkpoints"][0] > 1
    if stack == "wal":
        assert turbo["scrub"].rounds > 5
        assert turbo["metrics"].wal_pages_written > 20


# ------------------------------------------------------------ replay's edges


def _warm(variant, stack):
    manager = build("lru", variant, surrounding=stack)
    warm = generate_trace(MS, NUM_PAGES, 300, seed=3)
    replay(manager, warm.pages, warm.writes)
    return manager


STRETCH = generate_trace(MS, NUM_PAGES, 400, seed=4)


def _step(manager, pages, writes, op_ticks, until_ticks, stalls=None):
    """One request at a time, CPU first: (ran, stalls, ends)."""
    clock = manager.device.clock
    stalls, ends = [] if stalls is None else stalls, []
    for index, (page, is_write) in enumerate(zip(pages, writes)):
        mark = clock.ticks
        clock.ticks += op_ticks
        manager.access(page, is_write)
        if clock.ticks != mark + op_ticks:
            stalls.append((index, clock.ticks - mark - op_ticks))
        ends.append(clock.ticks)
        if until_ticks is not None and clock.ticks >= until_ticks:
            break
    return len(ends), stalls, ends


def _replay_three_ways(variant, stack, pages, writes, op_ticks, until_ticks):
    """(ran, stalls, state) of both arms and of the stepped loop; equal.
    A request out of the device's range stands in for ``ran`` as the text
    of the ``IndexError`` it raised."""
    results = []
    for arm in ("inlined loop", "reference arm", "request by request"):
        manager = _warm(variant, stack)
        stalls = []
        try:
            if arm == "request by request":
                ran, _, _ = _step(manager, pages, writes, op_ticks, until_ticks, stalls)
            else:
                with per_request(arm == "reference arm"):
                    ran = replay(manager, pages, writes, op_ticks, until_ticks, stalls)
        except IndexError as error:
            ran = str(error)
        results.append((ran, stalls, state(manager)))
    assert results[0] == results[1] == results[2]
    return results[0][:2]


def _trajectory(variant, stack, op_ticks=OP_TICKS):
    """Where each request of the stretch ends, and which ones stall."""
    manager = _warm(variant, stack)
    start = manager.device.clock.ticks
    _, stalls, ends = _step(manager, STRETCH.pages, STRETCH.writes, op_ticks, None)
    return start, dict(stalls), ends


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_deadline_crossed_at_a_hit(variant, stack):
    """The hit after which hits alone reach the deadline, misses before it
    having moved that point since the stretch began."""
    _, stalled, ends = _trajectory(variant, stack)
    index = next(i for i in range(100, len(ends)) if i not in stalled and i - 1 in stalled)
    for until in (ends[index - 1] + 1, ends[index]):
        ran, _ = _replay_three_ways(
            variant, stack, STRETCH.pages, STRETCH.writes, OP_TICKS, until
        )
        assert ran == index + 1


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_deadline_crossed_at_a_miss(variant, stack):
    _, stalled, ends = _trajectory(variant, stack)
    index = next(i for i in range(100, len(ends)) if i in stalled)
    for until in (ends[index - 1] + OP_TICKS + 1, ends[index]):
        ran, stalls = _replay_three_ways(
            variant, stack, STRETCH.pages, STRETCH.writes, OP_TICKS, until
        )
        assert ran == index + 1 and stalls[-1][0] == index


#: Writes to 16 hot pages, a cold read every 40 requests: between misses
#: the log fills pages of its own, at hits.
HOT = Trace(
    [300 + i // 40 if i % 40 == 39 else i % 16 for i in range(400)],
    [i % 40 != 39 for i in range(400)],
)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_log_page_fills_at_a_hit(variant):
    """The log page a write hit fills is that request's stall, and a
    deadline its write crosses stops the stretch right there."""
    manager = _warm(variant, "wal")
    clock = manager.device.clock
    ends, filled_at_hits = [], []
    for index, (page, is_write) in enumerate(zip(HOT.pages, HOT.writes)):
        mark, misses = clock.ticks, manager.stats.misses
        clock.ticks += OP_TICKS
        manager.access(page, is_write)
        ends.append(clock.ticks)
        if manager.stats.misses == misses and clock.ticks != mark + OP_TICKS:
            filled_at_hits.append(index)
    assert len(filled_at_hits) > 5
    _replay_three_ways(variant, "wal", HOT.pages, HOT.writes, OP_TICKS, None)
    index = filled_at_hits[2]
    for until in (ends[index - 1] + OP_TICKS + 1, ends[index]):
        ran, _ = _replay_three_ways(
            variant, "wal", HOT.pages, HOT.writes, OP_TICKS, until
        )
        assert ran == index + 1


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_deadline_due_on_entry_runs_one_request(variant, stack):
    start, _, _ = _trajectory(variant, stack)
    for until in (0, start, start + 1):
        ran, _ = _replay_three_ways(
            variant, stack, STRETCH.pages, STRETCH.writes, OP_TICKS, until
        )
        assert ran == 1


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_cpu_charge_crosses_only_at_a_miss(variant, stack):
    """``cpu_us_per_op = 0``: time stands still over hits, so only a miss
    can reach a deadline, and one beyond the stretch is never reached."""
    _, stalled, ends = _trajectory(variant, stack, op_ticks=0)
    index = next(i for i in range(100, len(ends)) if i in stalled)
    ran, _ = _replay_three_ways(
        variant, stack, STRETCH.pages, STRETCH.writes, 0, ends[index]
    )
    assert ran == index + 1
    ran, _ = _replay_three_ways(
        variant, stack, STRETCH.pages, STRETCH.writes, 0, ends[-1] + 1
    )
    assert ran == len(STRETCH)


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_raising_request_mid_stretch(variant, stack):
    """A request out of the device's range raises on every arm after the
    same requests ran, its CPU charged, counted but not applied."""
    pages = [*STRETCH.pages[:150], NUM_PAGES + 7, *STRETCH.pages[150:]]
    writes = [*STRETCH.writes[:150], True, *STRETCH.writes[150:]]
    _, _, ends = _trajectory(variant, stack)
    outcomes = []
    for arm in ("inlined loop", "reference arm", "request by request"):
        manager = _warm(variant, stack)
        stalls = []
        with pytest.raises(IndexError), per_request(arm == "reference arm"):
            if arm == "request by request":
                _step(manager, pages, writes, OP_TICKS, ends[-1])
            else:
                replay(manager, pages, writes, OP_TICKS, ends[-1], stalls)
        outcomes.append(state(manager))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    buffer = outcomes[0]["buffer"]
    assert buffer["misses"] + buffer["hits"] == 300 + 151  # warm-up, then 151


# ------------------------------------------------------------ the hand-off

#: A page beyond the device, and the error every arm raises for it.
OUTSIDE = NUM_PAGES + 7
OUTSIDE_ERROR = f"page {OUTSIDE} out of device range [0, {NUM_PAGES})"


def _with_outside(at):
    """The stretch with ``OUTSIDE`` read before request ``at``."""
    pages, writes = STRETCH.pages, STRETCH.writes
    return [*pages[:at], OUTSIDE, *pages[at:]], [*writes[:at], False, *writes[at:]]


@pytest.mark.parametrize("at", [0, 150, len(STRETCH)], ids=["start", "middle", "end"])
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_page_outside_the_device_is_handed_off(variant, stack, at):
    """The inlined loop replays the requests before it, the reference arm
    the rest: the page raises where it does request by request."""
    pages, writes = _with_outside(at)
    ran, stalls = _replay_three_ways(variant, stack, pages, writes, OP_TICKS, None)
    assert ran == OUTSIDE_ERROR
    assert all(index < at for index, _ in stalls)


@pytest.mark.parametrize("offset", [-1, 0, 1], ids=["before", "at", "after"])
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_hand_off_honours_the_deadline(variant, stack, offset):
    """A deadline that the last request before the outside page reaches
    ends the stretch there: the page never runs, so nothing raises."""
    _, _, ends = _trajectory(variant, stack)
    pages, writes = _with_outside(150)
    ran, stalls = _replay_three_ways(
        variant, stack, pages, writes, OP_TICKS, ends[149] + offset
    )
    assert ran == (150 if offset <= 0 else OUTSIDE_ERROR)


def test_a_page_past_the_probe_space_is_served_by_the_reference_arm():
    """On a device of no size the dict table's probe space still ends; a
    page past it is no error, so the reference arm replays the rest of the
    stretch, its stalls indexed from the stretch's start."""
    pages = [1, 2, 1, 2**63, 3, 4, 5, 6, 2, 1]
    writes = [False, True] * 5
    results = []
    for arm in ("inlined loop", "reference arm"):
        manager = BufferPoolManager(4, LRUPolicy(), SimulatedSSD(PCIE_SSD))
        stalls = []
        with per_request(arm == "reference arm"):
            ran = replay(manager, pages, writes, OP_TICKS, None, stalls)
        results.append((ran, stalls, manager.table.pages(), state(manager)))
    assert results[0] == results[1]
    ran, stalls, _, _ = results[0]
    assert ran == len(pages)
    assert [index for index, _ in stalls] == [0, 1, 3, 4, 5, 6, 7, 8, 9]


def _unbounded_run(arm, warm_pages):
    """A dict-table pool on a device of no size, warmed by reads of
    ``warm_pages``, then asked for page -1 twice."""
    manager = BufferPoolManager(4, LRUPolicy(), SimulatedSSD(PCIE_SSD))
    assert manager.table.backend == "dict" and executor._turbo_ready(manager)
    with per_request(arm == "reference arm"):
        replay(manager, warm_pages, [False] * len(warm_pages), OP_TICKS)
        reads = manager.device.stats.reads
        for _ in range(2):
            with pytest.raises(IndexError, match=r"page -1 out of device range"):
                replay(manager, [-1, -1], [False, False], OP_TICKS)
    pool = manager.pool
    assert manager.device.stats.reads == reads
    return (
        list(pool._free), manager.table.pages(), list(pool.page_of),
        manager.device.clock.ticks, dataclasses.asdict(manager.device.stats),
        dataclasses.asdict(manager.stats),
    )


@pytest.mark.parametrize("warm_pages", [[1, 2], [1, 2, 3, 4]], ids=["free", "full"])
def test_a_negative_page_raises_on_an_unbounded_device(warm_pages):
    """Page numbers are never negative, bounded device or not: both arms
    raise at the first request (a full pool having evicted first), read
    nothing, map nothing and leak no frame."""
    inlined = _unbounded_run("inlined loop", warm_pages)
    assert inlined == _unbounded_run("reference arm", warm_pages)
    free, table, page_of, _, _, stats = inlined
    assert -1 not in table
    assert sorted(page for page in page_of if page >= 0) == sorted(table)
    assert len(free) + len(table) == 4
    assert stats["misses"] == len(warm_pages) + 2


# ---------------------------------------------------------- the timers


@settings(max_examples=40, deadline=None)
@given(
    start_us=st.one_of(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=1e9, max_value=1e13),
    ),
    interval_us=st.floats(min_value=1e-3, max_value=1e9),
)
def test_each_timer_is_due_at_the_first_tick_its_predicate_holds(
    start_us, interval_us
):
    """False one tick before ``due_ticks``, true at it — at large clock
    values too, where one float ``now_us`` spans many ticks."""
    manager = build("lru", "baseline", surrounding="wal")
    clock = manager.device.clock
    clock.ticks = to_ticks(start_us)
    checkpointer = Checkpointer(manager, interval_us=interval_us)
    scrubber = IdleScrubber(manager, interval_us=interval_us, pages_per_round=1)
    for timer, fires in (
        (checkpointer, checkpointer.maybe_checkpoint),
        (scrubber, scrubber.maybe_scrub),
    ):
        due = timer.due_ticks()
        clock.ticks = due - 1
        assert not fires()
        clock.ticks = due
        assert fires()
    clock.ticks = to_ticks(start_us)
    bg_writer = BackgroundWriter(manager)
    options = ExecutionOptions(bg_writer_interval_us=interval_us)
    session = RunSession(manager, options, bg_writer)
    next_round_us = session.start_us + interval_us
    due = session.due_ticks()
    assert due == tick_at(next_round_us)
    assert to_us(due - 1) < next_round_us <= to_us(due)
    clock.ticks = due - 1
    session.tick()
    assert bg_writer.rounds == 0
    clock.ticks = due
    session.tick()
    assert bg_writer.rounds == 1


# ------------------------------------------------------------- the pin


def test_a_bare_stack_is_never_driven_through_access(monkeypatch):
    """Stepped ``run_trace``, both serving entries and a replica group
    with a timed fault pending all replay on the inlined loop."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def refuse(manager, page, is_write):
        raise AssertionError("manager.access reached")

    monkeypatch.setattr(BufferPoolManager, "access", refuse)
    trace = generate_trace(MS, NUM_PAGES, 600, seed=2)
    options = ExecutionOptions(cpu_us_per_op=3.0)
    latencies = LatencyRecorder()
    run_trace(build("lru", "ace+pf"), trace, options, latencies=latencies)
    assert latencies.count == len(trace)
    served = ServingLayer(build("lru", "ace")).serve_trace(trace, options)
    assert served.serving.completed == len(trace)
    layer = ServingLayer(build("lru", "ace", surrounding="wal"))
    layer.serve_transactions(TRANSACTIONS, options)
    assert layer.metrics.transactions_completed == len(TRANSACTIONS)
    config = ClusterConfig(
        profile=PCIE_SSD, policy="lru", variant="ace", num_pages=NUM_PAGES,
        num_shards=1, replication_factor=1,
        options=ExecutionOptions(cpu_us_per_op=3.0, commit_every_ops=32),
        node_faults=NodeFaultPlan(
            seed=0, faults=(NodeFault(shard=0, node=0, crash_at_us=20_000.0),)
        ),
    )
    summary = run_cluster(config, trace, workers=1).replication
    assert summary.failovers == 1 and summary.ok
