"""Tests for the flash translation layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.ftl import FlashTranslationLayer, FtlCounters, FtlError


def make_ftl(pages=128, ppb=8, op=0.15, threshold=2):
    return FlashTranslationLayer(
        num_logical_pages=pages,
        pages_per_block=ppb,
        over_provision=op,
        gc_free_block_threshold=threshold,
    )


class TestValidation:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(0)

    def test_rejects_tiny_blocks(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(16, pages_per_block=1)

    def test_rejects_bad_over_provision(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(16, over_provision=0.0)
        with pytest.raises(ValueError):
            FlashTranslationLayer(16, over_provision=1.5)

    def test_rejects_zero_gc_threshold(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(16, gc_free_block_threshold=0)

    def test_rejects_out_of_range_lpn(self):
        ftl = make_ftl(pages=8)
        with pytest.raises(IndexError):
            ftl.write(8)
        with pytest.raises(IndexError):
            ftl.read(-1)


class TestMapping:
    def test_unwritten_page_is_unmapped(self):
        ftl = make_ftl()
        assert not ftl.is_mapped(0)
        assert ftl.physical_location(0) is None
        assert ftl.read(0) is False

    def test_write_maps_page(self):
        ftl = make_ftl()
        ftl.write(5)
        assert ftl.is_mapped(5)
        assert ftl.read(5) is True

    def test_update_is_out_of_place(self):
        ftl = make_ftl()
        ftl.write(5)
        first = ftl.physical_location(5)
        ftl.write(5)
        second = ftl.physical_location(5)
        assert first != second

    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write(5)
        ftl.trim(5)
        assert not ftl.is_mapped(5)
        ftl.check_invariants()

    def test_trim_of_unmapped_page_is_noop(self):
        ftl = make_ftl()
        ftl.trim(3)
        assert not ftl.is_mapped(3)


class TestCounters:
    def test_logical_equals_host_writes(self):
        ftl = make_ftl()
        for page in range(20):
            ftl.write(page)
        assert ftl.counters.logical_writes == 20

    def test_physical_at_least_logical(self):
        ftl = make_ftl()
        rng = random.Random(1)
        for _ in range(2000):
            ftl.write(rng.randrange(128))
        counters = ftl.counters
        assert counters.physical_writes >= counters.logical_writes
        assert counters.physical_writes == (
            counters.logical_writes + counters.gc_relocations
        )

    def test_write_amplification_default_one(self):
        assert make_ftl().counters.write_amplification == 1.0

    def test_gc_triggers_under_churn(self):
        ftl = make_ftl(pages=64, ppb=8, op=0.2)
        rng = random.Random(2)
        for _ in range(3000):
            ftl.write(rng.randrange(64))
        assert ftl.counters.erases > 0
        assert ftl.counters.gc_invocations > 0
        assert ftl.counters.write_amplification > 1.0

    def test_reset_counters_keeps_mapping(self):
        ftl = make_ftl()
        ftl.write(1)
        ftl.reset_counters()
        assert ftl.counters.logical_writes == 0
        assert ftl.is_mapped(1)

    def test_counters_copy_is_independent(self):
        ftl = make_ftl()
        ftl.write(0)
        snapshot = ftl.counters.copy()
        ftl.write(1)
        assert snapshot.logical_writes == 1
        assert ftl.counters.logical_writes == 2


def test_counters_merge_sums_every_field():
    total = FtlCounters(logical_writes=3, physical_writes=5, erases=1)
    total.merge(FtlCounters(logical_writes=2, physical_writes=2, gc_invocations=4))
    assert total == FtlCounters(
        logical_writes=5, physical_writes=7, erases=1, gc_invocations=4
    )


class TestGarbageCollection:
    def test_sustained_overwrites_never_exhaust_free_blocks(self):
        ftl = make_ftl(pages=100, ppb=8, op=0.3)
        rng = random.Random(3)
        for _ in range(10_000):
            ftl.write(rng.randrange(100))
        assert ftl.free_block_count >= ftl.gc_free_block_threshold

    def test_hot_cold_separation_wears_evenly_enough(self):
        """Wear-leveling tie-break keeps erase counts from diverging wildly."""
        ftl = make_ftl(pages=128, ppb=8, op=0.3)
        rng = random.Random(4)
        for _ in range(20_000):
            # 90% of writes to 10% of pages
            if rng.random() < 0.9:
                ftl.write(rng.randrange(12))
            else:
                ftl.write(rng.randrange(128))
        erases = [count for count in ftl.erase_counts() if count > 0]
        assert erases, "expected some erases under churn"
        assert max(erases) <= 20 * (sum(erases) / len(erases))

    def test_victim_is_fewest_valid_then_least_worn_then_lowest_index(self):
        """Every collection picks what the definition picks, ties included."""
        ftl = make_ftl(pages=128, ppb=8, op=0.3)
        pick = ftl._pick_victim
        decided_by = set()

        def checked_pick():
            ranked = sorted(
                (
                    block for block in ftl._blocks
                    if block is not ftl._active
                    and block.index not in ftl._free_blocks
                    and block.valid_count < block.write_ptr
                ),
                key=lambda b: (b.valid_count, b.erase_count, b.index),
            )
            victim = pick()
            assert victim is ranked[0]
            if len(ranked) > 1 and ranked[1].valid_count == victim.valid_count:
                same_wear = ranked[1].erase_count == victim.erase_count
                decided_by.add("index" if same_wear else "wear")
            return victim

        ftl._pick_victim = checked_pick
        rng = random.Random(4)
        for _ in range(6_000):
            ftl.write(rng.randrange(12 if rng.random() < 0.9 else 128))
        assert ftl.counters.gc_invocations > 100
        assert decided_by == {"wear", "index"}

    def test_unsatisfiable_gc_threshold_raises_instead_of_looping(self):
        """An impossible free-pool target surfaces as FtlError, not a hang."""
        ftl = make_ftl(pages=16, ppb=4)
        for page in range(16):
            ftl.write(page)
        ftl.gc_free_block_threshold = ftl.num_blocks + 1
        with pytest.raises(FtlError):
            ftl.write(0)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, 63)),
            min_size=1,
            max_size=400,
        )
    )
    def test_invariants_hold_under_random_operations(self, operations):
        ftl = make_ftl(pages=64, ppb=8, op=0.25)
        mapped = set()
        for op, page in operations:
            if op == "write":
                ftl.write(page)
                mapped.add(page)
            else:
                ftl.trim(page)
                mapped.discard(page)
        ftl.check_invariants()
        for page in range(64):
            assert ftl.is_mapped(page) == (page in mapped)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_write_amplification_bounded(self, seed):
        """WA stays below the theoretical worst case for the configuration."""
        ftl = make_ftl(pages=64, ppb=8, op=0.25)
        rng = random.Random(seed)
        for _ in range(1500):
            ftl.write(rng.randrange(64))
        # Greedy GC on uniform traffic cannot amplify writes by more than
        # pages_per_block (every GC would have to move ppb - 1 pages).
        assert ftl.counters.write_amplification < 8
