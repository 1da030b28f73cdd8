"""Unit tests for the ACE Writer, Evictor, and Reader components."""

import pytest

from repro.core.evictor import Evictor
from repro.core.reader import Reader
from repro.core.stack import build_manager
from repro.core.writer import Writer
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD

from tests.core.conftest import ScriptedPrefetcher, make_ace


class TestWriter:
    def test_validation(self):
        manager = make_ace()
        with pytest.raises(ValueError):
            Writer(manager, 0)

    def test_select_set_led_by_victim(self):
        manager = make_ace(capacity=6, n_w=3)
        for page in (0, 1, 2, 3):
            manager.write_page(page)
        # Pretend 2 is the victim even though 0 precedes it in LRU order.
        selected = manager.writer.select_writeback_set(2)
        assert selected[0] == 2
        assert len(selected) == 3
        assert 0 in selected  # next dirty pages follow the virtual order

    def test_select_set_capped_at_nw(self):
        manager = make_ace(capacity=8, n_w=2)
        for page in range(6):
            manager.write_page(page)
        assert len(manager.writer.select_writeback_set(0)) == 2

    def test_flush_counts(self):
        manager = make_ace(capacity=6, n_w=4)
        for page in (0, 1):
            manager.write_page(page)
        written = manager.writer.flush([0, 1])
        assert written == 2
        assert manager.stats.writeback_batches == 1
        assert manager.stats.writebacks == 2
        assert manager.device.stats.write_batch_size_histogram == {2: 1}
        assert not manager.is_dirty(0)

    def test_flush_empty_is_noop(self):
        manager = make_ace()
        assert manager.writer.flush([]) == 0
        assert manager.stats.writeback_batches == 0
        assert manager.device.stats.write_batches == 0


class TestEvictor:
    def test_validation(self):
        manager = make_ace()
        with pytest.raises(ValueError):
            Evictor(manager, 0)

    def test_select_eviction_set(self):
        manager = make_ace(capacity=6, n_e=3)
        for page in range(4):
            manager.read_page(page)
        selected = manager.evictor.select_eviction_set(1)
        assert selected[0] == 1
        assert len(selected) == 3

    def test_evict_counts(self):
        manager = make_ace(capacity=6, n_e=4)
        for page in range(4):
            manager.read_page(page)
        evicted = manager.evictor.evict([0, 1, 2])
        assert evicted == 3
        assert manager.stats.evictions == 3
        assert not manager.contains(0)

    def test_single_eviction_not_counted_as_multi(self):
        manager = make_ace(capacity=6)
        manager.read_page(0)
        assert manager.evictor.evict([0]) == 1
        assert manager.stats.evictions == 1


class TestReader:
    def test_select_prefetch_set_filters(self):
        prefetcher = ScriptedPrefetcher({5: [6, 7, 6, 5, 9999]})
        manager = make_ace(capacity=8, num_pages=256, prefetch=True,
                           prefetcher=prefetcher)
        manager.read_page(7)  # make 7 resident
        reader = manager.reader
        selected = reader.select_prefetch_set(5, limit=5)
        # 6 kept; duplicate 6 dropped; 5 (self) dropped; 7 resident dropped;
        # 9999 out of range dropped.
        assert selected == [6]

    def test_limit_zero_returns_empty(self):
        prefetcher = ScriptedPrefetcher({5: [6]})
        manager = make_ace(prefetch=True, prefetcher=prefetcher)
        assert manager.reader.select_prefetch_set(5, 0) == []

    def test_fetch_installs_hot_and_cold(self):
        prefetcher = ScriptedPrefetcher({})
        manager = make_ace(capacity=8, prefetch=True, prefetcher=prefetcher)
        manager.reader.fetch(5, [6, 7])
        assert manager.contains(5) and manager.contains(6)
        order = list(manager.policy.eviction_order())
        assert order[-1] == 5          # requested page at MRU
        assert set(order[:2]) == {6, 7}  # prefetched pages at LRU end
        assert manager.stats.prefetch_issued == 2
        assert manager.device.stats.read_batches == 1
        assert manager.device.stats.reads == 3

    @pytest.mark.parametrize(
        "page, prefetch, error",
        [
            (5, [5], ValueError),  # the missed page repeated
            (5, [6, 6], ValueError),  # a prefetched page repeated
            (5, [6, 0], ValueError),  # a resident page
            (0, [6], ValueError),  # the missed page resident
            (5, [6, 100], IndexError),  # past the device's last page
            (-1, [6], IndexError),
            (20, list(range(21, 30)), RuntimeError),  # 10 pages, 9 free frames
        ],
        ids=["missed-repeated", "prefetched-repeated", "prefetched-resident",
             "missed-resident", "past-the-end", "negative", "too-few-frames"],
    )
    def test_fetch_refuses_a_bad_batch_before_reading_anything(
        self, page, prefetch, error
    ):
        device = SimulatedSSD(PCIE_SSD, num_pages=100)
        device.format_pages(range(100))
        manager = build_manager(device, 10, "lru", "ace+pf")
        manager.read_page(0)
        pool = manager.pool

        def state():
            return (
                list(pool._free), list(pool.page_of), list(pool.prefetched_bits),
                dict(manager.table._frame_of), list(manager.policy.eviction_order()),
                device.clock.ticks, device.stats.copy(), manager.stats.copy(),
            )

        before = state()
        with pytest.raises(error):
            manager.reader.fetch(page, prefetch)
        assert state() == before
        # The pool is whole: a good batch still lands, every stamped frame
        # mapped, and only its own pages counted as prefetched.
        frame_id = manager.reader.fetch(7, [8, 9])
        assert pool.page_of[frame_id] == 7
        stamped = sorted(p for p in pool.page_of if p >= 0)
        assert stamped == sorted(manager.resident_pages()) == [0, 7, 8, 9]
        assert manager.stats.prefetch_issued == 2
        assert device.stats.reads == 4 and device.stats.read_batches == 2

    def test_hot_placement_ablation(self):
        prefetcher = ScriptedPrefetcher({})
        manager = make_ace(capacity=8, prefetch=True, prefetcher=prefetcher)
        manager.reader.cold_placement = False
        manager.read_page(0)
        manager.reader.fetch(5, [6])
        order = list(manager.policy.eviction_order())
        # With hot placement, the prefetched page is NOT first to evict.
        assert order[0] == 0
