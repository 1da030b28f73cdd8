"""The inlined loop's log flushes are deferred: timed now, stored at the end.

Inside ``_replay_turbo`` no one reads the log device between two of the
loop's own flushes, so a flush it makes charges the page write's ticks to
the clock, advances ``durable_lsn`` and records the group's size; the
stretch end builds and stores every deferred page in one columnar
``write_out``, on the raising exit too.  What holds that to the reference
arm (``manager.access`` request by request, every flush written at once),
on a baseline + WAL stack:

* right after the stretch, before anything flushes, the log device holds
  the same images with the same counters (``write_time_us`` to the last
  bit), and the clock, the durable prefix and the ``stalls`` list agree;
* under a deadline and a stalls list, at a hand-off to a page outside the
  device, and when the stretch raises mid-way;
* with one and three records per log page, where page fills and the
  write-backs' flushes interleave.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.engine import executor
from repro.engine.executor import replay
from repro.policies import LRUPolicy
from repro.storage.clock import to_ticks
from repro.workloads.synthetic import MS, generate_trace

from tests.bufferpool.conftest import make_device
from tests.differential import CAPACITY, NUM_PAGES, per_request, wal_state

OP_TICKS = to_ticks(3.0)
TRACE = generate_trace(MS, NUM_PAGES, 900, seed=5)
ARMS = ("inlined loop", "reference arm")


class FailingLRU(LRUPolicy):
    """LRU whose ``fail_at``-th victim selection raises."""

    def __init__(self, fail_at):
        super().__init__()
        self.calls, self.fail_at = 0, fail_at

    def select_victim(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError(f"victim selection {self.calls} failed")
        return super().select_victim()


def build(records_per_page=32, fail_at=None):
    device = make_device(NUM_PAGES)
    policy = LRUPolicy() if fail_at is None else FailingLRU(fail_at)
    wal = WriteAheadLog(device.clock, records_per_page=records_per_page)
    manager = BufferPoolManager(CAPACITY, policy, device, wal=wal, sanitize=False)
    assert executor._turbo_ready(manager)
    return manager


def log_as_left(manager):
    """The log and its device as the stretch left them — nothing flushed
    first — then as a commit flush leaves them (``wal_state``)."""
    wal = manager.wal
    left = {
        "clock": manager.device.clock.ticks,
        "lsn": wal.lsn,
        "durable_lsn": wal.durable_lsn,
        "room": wal.room,
        "pages_written": wal.pages_written,
        "unwritten": list(wal.unwritten),
        "log_device": dataclasses.asdict(wal.device.stats),
        "images": wal.device.snapshot_payloads(),
        "data_device": dataclasses.asdict(manager.device.stats),
        "buffer": dataclasses.asdict(manager.stats),
    }
    return left, wal_state(wal), manager.device.clock.ticks


def replay_both_arms(pages, writes, *, records_per_page=32, fail_at=None,
                     until_ticks=None, warm=300):
    """Warm a stack, then replay the stretch on each arm; returns each
    arm's ``(outcome, stalls, log_as_left)``, which must agree."""
    results = []
    for arm in ARMS:
        manager = build(records_per_page, fail_at)
        replay(manager, TRACE.pages[:warm], TRACE.writes[:warm], OP_TICKS)
        stalls = []
        with per_request(arm == "reference arm"):
            try:
                outcome = replay(
                    manager, pages, writes, OP_TICKS, until_ticks, stalls
                )
            except (IndexError, RuntimeError) as error:
                outcome = repr(error)
        results.append((outcome, stalls, log_as_left(manager)))
    assert results[0] == results[1]
    return results[0]


STRETCH = TRACE.slice(300, len(TRACE))


@pytest.mark.parametrize("records_per_page", [1, 3, 32])
def test_a_stretch_leaves_the_log_per_flush_writing_leaves(records_per_page):
    ran, stalls, (left, _, _) = replay_both_arms(
        STRETCH.pages, STRETCH.writes, records_per_page=records_per_page
    )
    assert ran == len(STRETCH) and stalls
    assert left["unwritten"] == []
    # The stretch did flush pages: at write-backs, and at fills when a
    # log page holds few records.
    assert left["log_device"]["writes"] == left["pages_written"] > 0
    assert left["data_device"]["writes"] > 0


@pytest.mark.parametrize("records_per_page", [1, 3, 32])
def test_a_deadline_and_a_stalls_list(records_per_page):
    """The deadline falls mid-stretch: the clock is read after each miss
    and where a write fills a log page, each stall on its own request."""
    manager = build(records_per_page)
    replay(manager, TRACE.pages[:300], TRACE.writes[:300], OP_TICKS)
    start = manager.device.clock.ticks
    replay(manager, STRETCH.pages, STRETCH.writes, OP_TICKS)
    until = (start + manager.device.clock.ticks) // 2
    ran, stalls, _ = replay_both_arms(
        STRETCH.pages, STRETCH.writes, records_per_page=records_per_page,
        until_ticks=until,
    )
    assert 0 < ran < len(STRETCH)
    assert stalls and stalls[-1][0] < ran


@pytest.mark.parametrize("records_per_page", [1, 3])
def test_a_hand_off_at_a_page_outside_the_device(records_per_page):
    """The inlined loop replays up to the page, storing its deferred log
    pages as it ends; the reference arm raises at the page."""
    at, outside = 200, NUM_PAGES + 7
    pages = [*STRETCH.pages[:at], outside, *STRETCH.pages[at:]]
    writes = [*STRETCH.writes[:at], False, *STRETCH.writes[at:]]
    error, stalls, (left, _, _) = replay_both_arms(
        pages, writes, records_per_page=records_per_page, until_ticks=None
    )
    assert "out of device range" in error
    assert all(index < at for index, _ in stalls)
    assert left["unwritten"] == [] and left["pages_written"] > 0


@pytest.mark.parametrize("records_per_page", [1, 3, 32])
def test_a_stretch_that_raises_stores_its_deferred_pages(records_per_page):
    """The 40th eviction's victim selection raises: every log page the
    stretch flushed before it is on the device, as per-flush writing left
    it, and the raising request was counted but not logged."""
    error, _, (left, _, _) = replay_both_arms(
        STRETCH.pages, STRETCH.writes, records_per_page=records_per_page,
        fail_at=40, warm=0,
    )
    assert "victim selection 40 failed" in error
    assert left["unwritten"] == [] and left["pages_written"] > 0
    assert left["data_device"]["writes"] > 0
