"""Tests for the simulated SSD."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.clock import VirtualClock, to_ticks
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import (
    PAPER_DEVICES,
    PCIE_SSD,
    DeviceProfile,
    emulated_profile,
)

FLAT = DeviceProfile(
    name="flat", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)


def make_device(num_pages=128, profile=FLAT, **kwargs):
    return SimulatedSSD(profile, num_pages=num_pages, **kwargs)


class TestBasics:
    def test_read_advances_clock_by_read_latency(self):
        device = make_device()
        device.read_page(0)
        assert device.clock.now_us == pytest.approx(100.0)

    def test_write_advances_clock_by_alpha_reads(self):
        device = make_device()
        device.write_page(0, payload=1)
        assert device.clock.now_us == pytest.approx(200.0)

    def test_shared_clock(self):
        clock = VirtualClock()
        a = make_device(clock=clock)
        b = make_device(clock=clock)
        a.read_page(0)
        b.read_page(0)
        assert clock.now_us == pytest.approx(200.0)

    def test_read_of_unwritten_page_returns_none(self):
        assert make_device().read_page(3) is None

    def test_read_after_write_returns_payload(self):
        device = make_device()
        device.write_page(7, payload="hello")
        assert device.read_page(7) == "hello"

    def test_out_of_range_read_rejected(self):
        with pytest.raises(IndexError):
            make_device(num_pages=10).read_page(10)

    def test_out_of_range_write_rejected(self):
        with pytest.raises(IndexError):
            make_device(num_pages=10).write_page(-1)

    def test_unbounded_device_accepts_any_page(self):
        device = SimulatedSSD(FLAT)
        device.write_page(10**9, payload=1)
        assert device.read_page(10**9) == 1

    def test_unbounded_device_refuses_a_negative_page(self):
        """Page numbers start at 0 on every device: each entry point refuses
        -1, charging, counting and storing nothing."""
        device = SimulatedSSD(FLAT)
        device.write_page(3, payload=1)
        before = device_state(device)
        for call in (
            device.read_page,
            device.verify_page,
            device.write_page,
            lambda page: device.read_batch([3, page]),
            lambda page: device.write_batch({3: 2, page: 1}),
        ):
            with pytest.raises(
                IndexError, match=r"^page -1 out of device range \[0, inf\)$"
            ):
                call(-1)
        assert device_state(device) == before

    def test_contains(self):
        device = make_device()
        assert not device.contains(5)
        device.write_page(5)
        assert device.contains(5)


class TestBatches:
    def test_full_write_wave_costs_single_write(self):
        device = make_device()
        device.write_batch({p: p for p in range(4)})
        assert device.clock.now_us == pytest.approx(200.0)

    def test_oversized_batch_takes_two_waves(self):
        device = make_device()
        device.write_batch({p: p for p in range(5)})
        assert device.clock.now_us == pytest.approx(400.0)

    def test_read_batch_returns_payloads_in_order(self):
        device = make_device()
        device.write_batch({3: "c", 1: "a", 2: "b"})
        assert device.read_batch([1, 2, 3, 4]) == ["a", "b", "c", None]

    def test_duplicate_pages_in_write_batch_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.write_batch([1, 1])

    def test_write_batch_from_iterable_preserves_payloads(self):
        device = make_device()
        device.write_page(1, payload="keep")
        device.write_batch([1, 2])
        assert device.read_page(1) == "keep"

    def test_empty_batches_free(self):
        device = make_device()
        device.read_batch([])
        device.write_batch({})
        assert device.clock.now_us == 0.0
        assert device.stats.total_ios == 0


#: Every shipped profile, plus shapes whose batch costs differ per ``n``.
COST_PROFILES = (*PAPER_DEVICES, FLAT, emulated_profile(3.0, 8))


class TestBatchCosts:
    """A batch moves the clock and the device time exactly as
    ``advance(model.*_batch_us(n))`` does, for every size, first seen or
    repeated, in any order."""

    @pytest.mark.parametrize(
        "profile", COST_PROFILES, ids=[p.name for p in COST_PROFILES]
    )
    def test_batches_cost_what_the_model_says(self, profile):
        device = make_device(num_pages=64, profile=profile)
        model = profile.latency_model()
        clock = VirtualClock()
        write_ticks = read_ticks = 0
        histogram: dict[int, int] = {}
        largest_write = largest_read = 0
        sizes = list(range(1, 2 * profile.k_w + 1)) * 3
        random.Random(profile.name).shuffle(sizes)
        for n in sizes:
            device.write_batch(dict.fromkeys(range(n), n))
            elapsed = model.write_batch_us(n)
            clock.advance(elapsed)
            write_ticks += to_ticks(elapsed)
            histogram[n] = histogram.get(n, 0) + 1
            largest_write = max(largest_write, n)
            assert device.clock.ticks == clock.ticks
            assert device.read_batch(list(range(n))) == [n] * n
            elapsed = model.read_batch_us(n)
            clock.advance(elapsed)
            read_ticks += to_ticks(elapsed)
            largest_read = max(largest_read, n)
            assert device.clock.ticks == clock.ticks
        stats = device.stats
        assert (stats.write_ticks, stats.read_ticks) == (write_ticks, read_ticks)
        assert stats.write_ticks + stats.read_ticks == clock.ticks
        assert stats.write_batch_size_histogram == histogram
        assert (stats.largest_write_batch, stats.largest_read_batch) == (
            largest_write, largest_read,
        )
        assert stats.writes == stats.reads == sum(sizes)
        assert stats.write_batches == stats.read_batches == len(sizes)


class TestStats:
    def test_counts_reads_and_writes(self):
        device = make_device()
        device.read_batch([0, 1, 2])
        device.write_batch({3: 0, 4: 0})
        assert device.stats.reads == 3
        assert device.stats.writes == 2
        assert device.stats.read_batches == 1
        assert device.stats.write_batches == 1

    def test_tracks_largest_batches(self):
        device = make_device()
        device.write_batch({p: 0 for p in range(6)})
        device.write_page(9)
        assert device.stats.largest_write_batch == 6

    def test_write_batch_histogram(self):
        device = make_device()
        device.write_page(0)
        device.write_page(1)
        device.write_batch({2: 0, 3: 0})
        assert device.stats.write_batch_size_histogram == {1: 2, 2: 1}

    def test_mean_write_batch(self):
        device = make_device()
        device.write_page(0)
        device.write_batch({1: 0, 2: 0, 3: 0})
        assert device.stats.mean_write_batch == pytest.approx(2.0)

    def test_time_split_by_kind(self):
        device = make_device()
        device.read_page(0)
        device.write_page(1)
        assert device.stats.read_ticks == to_ticks(100.0)
        assert device.stats.write_ticks == to_ticks(200.0)
        assert device.clock.ticks == to_ticks(300.0)

    def test_reset_stats(self):
        device = make_device()
        device.write_page(0)
        device.reset_stats()
        assert device.stats.total_ios == 0
        # payloads survive a stats reset
        assert device.contains(0)

    def test_merge_sums_counts_maxes_largest_and_adds_the_histogram(self):
        """The one way device counters add (cluster merge, replica groups)."""
        first, second = make_device(), make_device()
        first.write_batch({p: 0 for p in range(6)})
        first.read_page(0)
        second.write_batch({p: 0 for p in range(4)})
        second.write_page(9)
        second.read_batch([1, 2, 3])
        total = first.stats.copy()
        total.merge(second.stats)
        assert (total.reads, total.writes) == (4, 11)
        assert (total.read_batches, total.write_batches) == (2, 3)
        assert (total.largest_write_batch, total.largest_read_batch) == (6, 3)
        assert list(total.write_batch_size_histogram.items()) == [
            (6, 1), (1, 1), (4, 1)
        ]
        assert total.write_ticks == (
            first.stats.write_ticks + second.stats.write_ticks
        )
        # The operands are untouched, the copy's histogram is its own.
        assert first.stats.write_batch_size_histogram == {6: 1}
        assert second.stats.largest_write_batch == 4

    def test_format_pages_resets_counters(self):
        device = make_device()
        device.format_pages(range(128))
        assert device.stats.writes == 0
        assert device.contains(127)
        assert device.clock.now_us == 0.0

    def test_bulk_format_loads_the_same_dict_in_place(self):
        """Without FTL or checksums ``format_pages`` loads in one update:
        the payload dict keeps its identity (the turbo loop holds it) and
        its insertion order, as the page-by-page spelling does."""
        bulk = SimulatedSSD(FLAT, num_pages=64)
        stepped = SimulatedSSD(FLAT, num_pages=64, checksums=True)
        for device in (bulk, stepped):
            held = device._payloads
            device.write_batch({40: "old", 3: "older"})
            device.format_pages(iter([5, 3, 9, 40, 1]))
            assert device._payloads is held
            assert device.stats.writes == 0
        assert list(bulk._payloads.items()) == list(stepped._payloads.items())
        assert list(bulk._payloads) == [40, 3, 5, 9, 1]
        assert set(bulk._payloads.values()) == {0}


def device_state(device):
    """Everything a write can move: counters, payloads (in order), checksum
    map, clock ticks, and the FTL's counters, wear and page locations."""
    ftl = device.ftl
    return {
        "stats": dataclasses.asdict(device.stats),
        "payloads": list(device._payloads.items()),
        "checksums": device._checksums,
        "ticks": device.clock.ticks,
        "ftl": None if ftl is None else (
            dataclasses.asdict(ftl.counters),
            ftl.erase_counts(),
            [ftl.physical_location(page) for page in range(device.num_pages)],
        ),
    }


#: Device shapes ``write_page`` must agree with ``write_batch`` on.
SHAPES = {
    "bare": dict(num_pages=64),
    "with_ftl": dict(num_pages=64, with_ftl=True, pages_per_block=8),
    "checksums": dict(num_pages=64, checksums=True),
    "unbounded": dict(num_pages=None),
}


class TestWritePage:
    """``write_page`` is ``write_batch({page: payload})`` written out."""

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
    def test_matches_a_one_page_batch(self, shape):
        # PCIE_SSD: a write latency that is not a whole float number of us.
        single, batched = (SimulatedSSD(PCIE_SSD, **shape) for _ in range(2))
        for device in (single, batched):
            device.format_pages(range(64))
        rng = random.Random(7)
        for step in range(600):
            page = rng.randrange(64)
            payload = rng.choice((step, None, ("image", step), "s"))
            single.write_page(page, payload)
            batched.write_batch({page: payload})
            if step % 97 == 0:  # a wider batch between, on both
                for device in (single, batched):
                    device.write_batch(dict.fromkeys(range(8, 13), step))
        assert device_state(single) == device_state(batched)
        assert single.stats.write_batch_size_histogram[1] == 600
        if single.ftl is not None:
            assert sum(single.ftl.erase_counts()) > 0  # GC ran

    @pytest.mark.parametrize("page", [64, -1])
    @pytest.mark.parametrize(
        "shape", [SHAPES["bare"], SHAPES["with_ftl"]], ids=["bare", "with_ftl"]
    )
    def test_out_of_range_raises_the_same_error_and_writes_nothing(
        self, shape, page
    ):
        single, batched = (SimulatedSSD(PCIE_SSD, **shape) for _ in range(2))
        with pytest.raises(IndexError) as by_page:
            single.write_page(page, 1)
        with pytest.raises(IndexError) as by_batch:
            batched.write_batch({page: 1})
        assert str(by_page.value) == str(by_batch.value)
        assert str(by_page.value) == f"page {page} out of device range [0, 64)"
        assert device_state(single) == device_state(batched)
        assert single.stats.writes == 0


class TestStoreWrites:
    """``store_writes`` is ``write_page`` pair by pair but the clock, which
    its caller charged as each write was issued."""

    @pytest.mark.parametrize("shape", SHAPES.values(), ids=list(SHAPES))
    def test_matches_write_page_pair_by_pair(self, shape):
        single, stored = (SimulatedSSD(PCIE_SSD, **shape) for _ in range(2))
        for device in (single, stored):
            device.format_pages(range(64))
        rng = random.Random(11)
        for step in range(60):
            n = rng.randrange(1, 40)
            pages = [rng.randrange(64) for _ in range(n)]  # repeats too
            payloads = [rng.choice((step, None, ("image", i), "s")) for i in range(n)]
            for page, payload in zip(pages, payloads):
                single.write_page(page, payload)
            stored.clock.ticks += n * stored._single_write_ticks
            stored.store_writes(pages, payloads)
        stored.store_writes([], [])  # nothing lands, nothing counts
        assert device_state(single) == device_state(stored)
        # Device time is the write count times one write's ticks.
        writes = stored.stats.writes
        assert stored.stats.write_ticks == writes * stored._single_write_ticks
        if single.ftl is not None:
            assert sum(single.ftl.erase_counts()) > 0  # GC ran

    @pytest.mark.parametrize("page", [64, -1])
    @pytest.mark.parametrize(
        "shape", [SHAPES["bare"], SHAPES["with_ftl"]], ids=["bare", "with_ftl"]
    )
    def test_out_of_range_raises_write_pages_error_and_stores_nothing(
        self, shape, page
    ):
        single, stored = (SimulatedSSD(PCIE_SSD, **shape) for _ in range(2))
        with pytest.raises(IndexError) as by_page:
            single.write_page(page, 1)
        with pytest.raises(IndexError) as by_store:
            stored.store_writes([1, page, 2], [1, 1, 1])
        assert str(by_page.value) == str(by_store.value)
        assert device_state(single) == device_state(stored)
        assert stored.stats.writes == 0 and not stored.contains(1)


class TestReadBatchRange:
    """``read_batch``'s range gate is ``read_page``'s, passed before the
    batch is charged."""

    @pytest.mark.parametrize("where", ["start", "middle", "end", "twice"])
    @pytest.mark.parametrize("page", [64, -1])
    @pytest.mark.parametrize(
        "shape", [SHAPES["bare"], SHAPES["with_ftl"]], ids=["bare", "with_ftl"]
    )
    def test_out_of_range_raises_read_pages_error_and_charges_nothing(
        self, shape, page, where
    ):
        device = SimulatedSSD(PCIE_SSD, **shape)
        device.write_batch(dict.fromkeys(range(8), 1))
        batch = {
            "start": [page, 1, 2],
            "middle": [1, page, 2],
            "end": [1, 2, page],
            "twice": [1, page, 2, 99],  # the first one is named
        }[where]
        before = device_state(device)
        with pytest.raises(IndexError) as by_page:
            device.read_page(page)
        with pytest.raises(IndexError) as by_batch:
            device.read_batch(batch)
        assert str(by_batch.value) == str(by_page.value)
        assert str(by_page.value) == f"page {page} out of device range [0, 64)"
        assert device_state(device) == before


class TestFtlIntegration:
    def test_ftl_requires_num_pages(self):
        with pytest.raises(ValueError):
            SimulatedSSD(FLAT, with_ftl=True)

    def test_ftl_counts_physical_writes(self):
        device = make_device(num_pages=64, with_ftl=True)
        for _ in range(3):
            for page in range(64):
                device.write_page(page)
        assert device.ftl is not None
        assert device.ftl.counters.logical_writes == 192
        assert device.ftl.counters.physical_writes >= 192

    def test_gc_produces_write_amplification(self):
        device = make_device(num_pages=256, with_ftl=True)
        device.format_pages(range(256))
        import random
        rng = random.Random(5)
        for _ in range(4000):
            device.write_page(rng.randrange(256))
        assert device.ftl.counters.write_amplification > 1.0


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 1000)),
            min_size=1,
            max_size=200,
        )
    )
    def test_read_after_write_durability(self, writes):
        """The last write to each page is always what a read returns."""
        device = make_device(num_pages=64)
        expected = {}
        for page, value in writes:
            device.write_page(page, payload=value)
            expected[page] = value
        for page, value in expected.items():
            assert device.read_page(page) == value

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=30))
    def test_clock_equals_sum_of_model_costs(self, batch_sizes):
        device = make_device(num_pages=4096)
        expected = 0.0
        next_page = 0
        for size in batch_sizes:
            pages = list(range(next_page, next_page + size))
            next_page += size
            device.write_batch(dict.fromkeys(pages, 0))
            expected += device.model.write_batch_us(size)
        assert device.clock.now_us == pytest.approx(expected)

    def test_pcie_profile_write_wave(self):
        device = SimulatedSSD(PCIE_SSD, num_pages=64)
        t0 = device.clock.now_us
        device.write_batch({p: 0 for p in range(8)})
        one_wave = device.clock.now_us - t0
        t1 = device.clock.now_us
        device.write_batch({p: 0 for p in range(9)})
        two_waves = device.clock.now_us - t1
        assert two_waves > one_wave
