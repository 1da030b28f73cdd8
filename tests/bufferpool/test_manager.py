"""Tests for the baseline buffer manager."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.errors import PageNotBufferedError, PoolExhaustedError
from repro.policies.clock import ClockSweepPolicy
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD

from tests.bufferpool.conftest import TEST_PROFILE, make_device, make_manager


class TestHitsAndMisses:
    def test_first_access_misses(self, manager):
        manager.read_page(0)
        assert manager.stats.misses == 1
        assert manager.stats.hits == 0

    def test_second_access_hits(self, manager):
        manager.read_page(0)
        manager.read_page(0)
        assert manager.stats.hits == 1
        assert manager.contains(0)

    def test_request_counters(self, manager):
        manager.read_page(0)
        manager.write_page(1)
        assert manager.stats.read_requests == 1
        assert manager.stats.write_requests == 1

    def test_hit_ratio(self, manager):
        manager.read_page(0)
        manager.read_page(0)
        manager.read_page(0)
        manager.read_page(1)
        assert manager.stats.hit_ratio == pytest.approx(0.5)

    def test_miss_reads_from_device(self, manager):
        manager.read_page(5)
        assert manager.device.stats.reads == 1


class TestEviction:
    def test_pool_never_exceeds_capacity(self):
        manager = make_manager(capacity=4)
        for page in range(20):
            manager.read_page(page)
        assert len(manager.table) == 4
        assert manager.pool.used_count == 4

    def test_lru_victim_evicted(self):
        manager = make_manager(capacity=2)
        manager.read_page(0)
        manager.read_page(1)
        manager.read_page(2)
        assert not manager.contains(0)
        assert manager.contains(1)
        assert manager.contains(2)

    def test_clean_eviction_issues_no_write(self):
        manager = make_manager(capacity=2)
        manager.read_page(0)
        manager.read_page(1)
        manager.read_page(2)
        assert manager.device.stats.writes == 0
        assert manager.stats.clean_evictions == 1

    def test_dirty_eviction_writes_single_page(self):
        manager = make_manager(capacity=2)
        manager.write_page(0)
        manager.read_page(1)
        manager.read_page(2)  # evicts dirty page 0
        assert manager.device.stats.writes == 1
        assert manager.stats.dirty_evictions == 1
        assert manager.stats.writeback_batches == 1
        assert manager.stats.mean_writeback_batch == pytest.approx(1.0)

    def test_all_pinned_raises(self):
        manager = make_manager(capacity=2)
        manager.read_page(0)
        manager.read_page(1)
        manager.pin(0)
        manager.pin(1)
        with pytest.raises(PoolExhaustedError):
            manager.read_page(2)

    def test_pool_exhausted_error_is_structured(self):
        manager = make_manager(capacity=2)
        manager.read_page(0)
        manager.read_page(1)
        manager.pin(0)
        manager.pin(1)
        with pytest.raises(PoolExhaustedError) as excinfo:
            manager.read_page(7)
        error = excinfo.value
        assert error.page == 7
        assert error.capacity == 2
        assert error.pinned == 2
        assert error.candidates_examined == 2
        assert "requested page 7" in str(error)
        assert "pool capacity 2" in str(error)
        assert "2 pinned" in str(error)
        assert "2 candidates examined" in str(error)

    def test_pool_pressure_counts_pinned_and_dirty(self):
        manager = make_manager(capacity=4)
        assert manager.pool_pressure == 0.0
        manager.read_page(0)
        manager.pin(0)
        assert manager.pool_pressure == pytest.approx(0.25)
        manager.write_page(1)  # dirty, unpinned
        assert manager.pool_pressure == pytest.approx(0.5)
        manager.write_page(0)  # pinned AND dirty: counted once
        assert manager.pool_pressure == pytest.approx(0.5)
        manager.unpin(0)
        assert manager.pool_pressure == pytest.approx(0.5)

    def test_pinned_page_survives_pressure(self):
        manager = make_manager(capacity=2)
        manager.read_page(0)
        manager.pin(0)
        for page in range(1, 10):
            manager.read_page(page)
        assert manager.contains(0)
        manager.unpin(0)

    def test_unpin_unpinned_rejected(self):
        manager = make_manager()
        manager.read_page(0)
        with pytest.raises(ValueError):
            manager.unpin(0)


class TestWritePath:
    def test_write_increments_version(self, manager):
        assert manager.write_page(3) == 1
        assert manager.write_page(3) == 2
        assert manager.read_page(3) == 2

    def test_explicit_payload(self, manager):
        manager.write_page(3, payload="hello")
        assert manager.read_page(3) == "hello"

    def test_write_marks_dirty(self, manager):
        manager.write_page(3)
        assert manager.is_dirty(3)
        assert manager.dirty_pages() == [3]

    def test_read_does_not_dirty(self, manager):
        manager.read_page(3)
        assert not manager.is_dirty(3)

    def test_flush_page_cleans(self, manager):
        manager.write_page(3)
        manager.flush_page(3)
        assert not manager.is_dirty(3)
        assert manager.device.stats.writes == 1
        assert manager.contains(3)  # flush does not evict

    def test_flush_page_clean_is_noop(self, manager):
        manager.read_page(3)
        manager.flush_page(3)
        assert manager.device.stats.writes == 0

    def test_flush_page_nonresident_rejected(self, manager):
        with pytest.raises(PageNotBufferedError):
            manager.flush_page(123)

    def test_flush_all(self, manager):
        for page in range(3):
            manager.write_page(page)
        flushed = manager.flush_all()
        assert flushed == 3
        assert manager.dirty_pages() == []
        # Baseline flushes one page at a time.
        assert manager.stats.writeback_batches == 3

    def test_dirty_page_version_survives_eviction(self):
        """No lost update: the evicted dirty version is what comes back."""
        manager = make_manager(capacity=2)
        manager.write_page(0)
        manager.write_page(0)
        manager.read_page(1)
        manager.read_page(2)  # evicts page 0 (dirty, version 2)
        assert not manager.contains(0)
        assert manager.read_page(0) == 2


class TestAccessDispatch:
    def test_access_routes_reads_and_writes(self, manager):
        manager.access(1, is_write=False)
        manager.access(1, is_write=True)
        assert manager.stats.read_requests == 1
        assert manager.stats.write_requests == 1


class TestStateView:
    def test_nonresident_pages_not_dirty_or_pinned(self, manager):
        assert not manager.is_dirty(200)
        assert not manager.is_pinned(200)

    def test_pin_reflects_in_view(self, manager):
        manager.read_page(0)
        manager.pin(0)
        assert manager.is_pinned(0)


class TestConstruction:
    def test_zero_capacity_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            BufferPoolManager(0, LRUPolicy(), device)

    def test_policy_bound_to_manager(self):
        policy = LRUPolicy()
        manager = make_manager(policy=policy)
        manager.write_page(0)
        assert policy.next_dirty(1) == [0]

    def test_variant_label(self, manager):
        assert manager.variant == "baseline"

    def test_repr(self, manager):
        assert "BufferPoolManager" in repr(manager)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.booleans()),
            min_size=1,
            max_size=300,
        )
    )
    def test_durability_and_capacity_invariants(self, requests):
        """After any request mix: pool within capacity, reads see last write."""
        manager = make_manager(capacity=6, num_pages=64)
        versions = dict.fromkeys(range(64), 0)
        for page, is_write in requests:
            if is_write:
                versions[page] = manager.write_page(page)
            else:
                value = manager.read_page(page)
                expected = versions[page] if versions[page] else None
                # format_pages wrote payload 0 at load time
                assert value == (versions[page] if versions[page] else 0)
            assert manager.pool.used_count <= 6
        manager.flush_all()
        # After a checkpoint the device holds the latest version of all.
        for page, version in versions.items():
            if version:
                assert manager.device._payloads[page] == version

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 100_000))
    def test_clock_policy_integration(self, seed):
        import random

        rng = random.Random(seed)
        manager = make_manager(capacity=5, num_pages=64, policy=ClockSweepPolicy())
        for _ in range(200):
            manager.access(rng.randrange(64), rng.random() < 0.5)
        assert manager.pool.used_count <= 5
        assert len(manager.policy) == manager.pool.used_count
        assert set(manager.policy.pages()) == set(manager.resident_pages())


class TestBulkFailureContract:
    """``_evict`` and ``_write_back`` fail as a page-by-page loop would:
    the error names the first offending page in request order.  An
    eviction keeps the pages before that offender evicted (and counted);
    a write-back has no side effect at all."""

    #: offence -> (exception type, message for page ``p``).
    EVICT_OFFENCES = {
        "absent": (PageNotBufferedError, "page {p} is not resident"),
        "dirty": (ValueError, "cannot evict dirty page {p}; write it back first"),
        "pinned": (ValueError, "cannot evict pinned page {p}"),
        "dirty and pinned": (
            ValueError, "cannot evict dirty page {p}; write it back first",
        ),
        "repeat": (PageNotBufferedError, "page {p} is not resident"),
    }

    @staticmethod
    def _manager(backend, wal=False):
        """A sanitised 8-frame pool on a bounded device (the array
        translation) or an unbounded one (the dict translation)."""
        device = (
            make_device(64) if backend == "array"
            else SimulatedSSD(TEST_PROFILE, num_pages=None)
        )
        manager = BufferPoolManager(
            8, LRUPolicy(), device,
            wal=WriteAheadLog(device.clock) if wal else None, sanitize=True,
        )
        assert manager.table.backend == backend
        return manager

    def _resident(self, backend="array"):
        manager = self._manager(backend)
        for page in range(8):
            manager.read_page(page)
        return manager

    @pytest.mark.parametrize(
        ("offence", "k"),
        # A repeat needs an earlier page: it cannot lead the list.
        [(offence, k) for offence in EVICT_OFFENCES for k in (0, 2, 4)
         if k or offence != "repeat"],
    )
    @pytest.mark.parametrize("backend", ["array", "dict"])
    def test_evict_stops_at_the_first_offender(self, offence, k, backend):
        manager = self._resident(backend)
        pages = [0, 1, 2, 3, 4, 5]
        # Prefetched pages on both sides of the offender: only those that
        # leave count as unused.
        for page in (1, 5):
            manager._prefetched_bits[manager._frame_of[page]] = 1
        offender = 40
        if offence == "repeat":
            offender = 0
        elif offence != "absent":
            offender = pages[k]
            if "dirty" in offence:
                manager.write_page(offender)
            if "pinned" in offence:
                manager.pin(offender)
        if offence in ("absent", "repeat"):
            pages.insert(k, offender)
        # A second offender further on: only the first is named.
        pages.insert(k + 2, 41)
        error, message = self.EVICT_OFFENCES[offence]
        stats = manager.stats
        evictions, unused = stats.evictions, stats.prefetch_unused
        free = list(manager.pool._free)
        with pytest.raises(error) as raised:
            manager._evict(pages)
        assert type(raised.value) is error
        assert str(raised.value) == message.format(p=offender)
        left = pages[:k]
        assert all(not manager.contains(page) for page in left)
        assert all(manager.contains(page) for page in pages[k + 1:] if page < 8)
        assert stats.evictions == evictions + len(left)
        assert stats.prefetch_unused == unused + sum(page in (1, 5) for page in left)
        assert manager.pool._free[:len(free)] == free
        assert len(manager.pool._free) == len(free) + len(left)
        assert sorted(manager.policy.pages()) == sorted(manager.resident_pages())
        manager.sanitizer.assert_clean()

    def test_evict_whole_list(self):
        manager = self._resident()
        manager._prefetched_bits[manager._frame_of[2]] = 1
        frames = [manager._frame_of[page] for page in (3, 2, 6)]
        manager._evict([3, 2, 6])
        assert manager.resident_pages() == [0, 1, 4, 5, 7]
        assert manager.pool._free[-3:] == frames
        assert (manager.stats.evictions, manager.stats.prefetch_unused) == (3, 1)
        manager._evict([])
        assert manager.stats.evictions == 3
        manager.sanitizer.assert_clean()

    @pytest.mark.parametrize("backend", ["array", "dict"])
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("offence", ["absent", "clean"])
    def test_write_back_raises_before_any_side_effect(self, offence, position, backend):
        manager = self._manager(backend, wal=True)
        device, wal = manager.device, manager.wal
        for page in range(8):
            manager.write_page(page)
        pages = [0, 1, 2, 3, 4]
        if offence == "absent":
            offender = 50
            pages.insert(position, offender)
            error, message = PageNotBufferedError, f"page {offender} is not resident"
        else:
            offender = pages[position]
            manager.flush_page(offender)  # flushes the log too
            error, message = ValueError, f"page {offender} is not dirty"
        pages.append(51)  # a later offender is never named
        for page in (5, 6, 7):
            manager.write_page(page)  # records a write-back would flush
        assert wal.durable_lsn < wal.lsn
        before = (
            dataclasses.asdict(device.stats), device.clock.ticks,
            wal.durable_lsn, dataclasses.asdict(wal.device.stats),
            dataclasses.asdict(manager.stats), manager.dirty_pages(),
        )
        with pytest.raises(error) as raised:
            manager._write_back(pages)
        assert type(raised.value) is error
        assert str(raised.value) == message
        assert before == (
            dataclasses.asdict(device.stats), device.clock.ticks,
            wal.durable_lsn, dataclasses.asdict(wal.device.stats),
            dataclasses.asdict(manager.stats), manager.dirty_pages(),
        )
        manager.sanitizer.assert_clean()

    def test_write_back_cleans_each_distinct_page_once(self):
        manager = BufferPoolManager(8, LRUPolicy(), make_device(64))
        for page in range(8):
            manager.write_page(page)
        cleaned = []
        mark_clean = manager._mark_clean
        manager._mark_clean = lambda page: (cleaned.append(page), mark_clean(page))
        assert manager._write_back([3, 1, 3, 5, 1]) == 3
        assert cleaned == [3, 1, 5]
        assert manager.dirty_pages() == [0, 2, 4, 6, 7]
        assert manager.device.stats.write_batch_size_histogram == {3: 1}
        assert manager.device.peek(3) == 1
        assert (manager.stats.writebacks, manager.stats.writeback_batches) == (3, 1)
        assert manager._write_back([]) == 0
