"""The inlined loop's log flushes are deferred: logged, then stored, later.

Inside ``_replay_turbo`` no one reads the log, its device, ``durable_lsn``
or the clock between two watches, so a write-back's WAL-before-data flush
is only noted (its request's index); the next watch or the stretch end
logs every write since the last with a flush cut before each noted
request, charges the flushed pages' ticks to the clock, advances
``durable_lsn`` and records each group's size; the stretch end builds and
stores every deferred page in one columnar ``write_out``, on the raising
exit too.  What holds that to the reference arm (``manager.access``
request by request, every flush written at once), on a baseline + WAL
stack:

* right after the stretch, before anything flushes, the log device holds
  the same images with the same counters, and the clock, the durable
  prefix and the ``stalls`` list agree;
* under a deadline and a stalls list, at a hand-off to a page outside the
  device, and when the stretch raises mid-way;
* with one and three records per log page, where page fills and the
  write-backs' flushes interleave;
* on a hand-built stretch where a page written back mid-stretch holds its
  last version on the device, or in its frame once read back and written
  again, and where a write-back flushes with no write since the last.
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
                     until_ticks=None, warm=(TRACE.pages[:300], TRACE.writes[:300]),
                     timed=True):
    """Warm a stack on the ``warm`` columns, then replay the stretch on
    each arm (with a stalls list if ``timed``); returns each arm's
    ``(outcome, stalls, log_as_left)``, which must agree."""
    results = []
    for arm in ARMS:
        manager = build(records_per_page, fail_at)
        replay(manager, *warm, OP_TICKS)
        stalls = [] if timed else None
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
        fail_at=40, warm=([], []),
    )
    assert "victim selection 40 failed" in error
    assert left["unwritten"] == [] and left["pages_written"] > 0
    assert left["data_device"]["writes"] > 0


#: Warm-up: page 100 written twice (its records still buffered when a log
#: page holds more), then pages 0-30 read: the pool is full, 100 oldest.
HAND_WARM = ([100, 100, *range(31)], [True, True, *[False] * 31])
#: The stretch, annotated with what each request does to an LRU pool of 32.
HAND_STRETCH = [
    (200, False),  # evicts 100 dirty: flushes the warm-up's records alone
    (0, True),     # a write hit
    (300, True),   # evicts 1; 300 written
    *((page, False) for page in range(201, 231)),  # evict 2-30, then 200
    (231, False),  # evicts 0 dirty: no write since the last watch's log
    (0, True),     # evicts 300 dirty, reads 0 back at version 1, writes it
    (0, True),     # writes it again: its frame holds its last version
    (232, False),  # evicts 201
]


@pytest.mark.parametrize("timed", [False, True], ids=("untimed", "stalls"))
@pytest.mark.parametrize("records_per_page", [1, 3, 32])
def test_a_page_written_back_mid_stretch_is_logged_at_its_versions(
    records_per_page, timed
):
    """Page 300 is written and written back, so only the device holds its
    last version; page 0 is written, written back, read back and written
    twice more, so its frame holds its last.  Both arms leave one log: a
    flush before each write-back, none between a write-back and its
    request's own write, and, under a stalls list, a flush at 231 though
    nothing was written since the watch before it logged the buffer."""
    pages, writes = map(list, zip(*HAND_STRETCH))
    ran, stalls, (left, records, _) = replay_both_arms(
        pages, writes, records_per_page=records_per_page, warm=HAND_WARM,
        timed=timed,
    )
    assert ran == len(pages) and bool(stalls) == timed
    assert left["buffer"]["dirty_evictions"] == 3
    # Six updates, each at its page's version then, in three flushed
    # groups when a log page holds more than one record.
    assert [(r.page, r.payload) for r in records["records"]] == [
        (100, 1), (100, 2), (0, 1), (300, 1), (0, 2), (0, 3),
    ]
    assert [image[1] for image in records["images"]] == (
        [1] * 6 if records_per_page == 1 else [2, 2, 2]
    )
