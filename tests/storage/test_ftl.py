"""Tests for the flash translation layer.

``ReferenceFtl`` below is the per-block FTL the flat-array one replaced:
one object per erase block with a state and an owner per slot, a victim
chosen by scanning every block.  It is the oracle — after every operation
both must agree on every counter, every erase count and every page's
physical location.
"""

import random
from dataclasses import dataclass, field
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.ftl import FlashTranslationLayer, FtlCounters, FtlError

_FREE, _VALID, _INVALID = 0, 1, 2


@dataclass
class _Block:
    """One erase block: per-slot state plus wear bookkeeping."""

    index: int
    pages_per_block: int
    erase_count: int = 0
    write_ptr: int = 0
    valid_count: int = 0
    slot_state: list = field(default_factory=list)
    slot_owner: list = field(default_factory=list)

    def __post_init__(self):
        self.slot_state = [_FREE] * self.pages_per_block
        self.slot_owner = [-1] * self.pages_per_block

    def erase(self):
        self.erase_count += 1
        self.write_ptr = 0
        self.valid_count = 0
        self.slot_state = [_FREE] * self.pages_per_block
        self.slot_owner = [-1] * self.pages_per_block


class ReferenceFtl:
    """The per-block FTL, page by page: the oracle for the flat one."""

    def __init__(self, num_logical_pages, pages_per_block=64,
                 over_provision=0.10, gc_free_block_threshold=2):
        self.num_logical_pages = num_logical_pages
        self.pages_per_block = pages_per_block
        self.gc_free_block_threshold = gc_free_block_threshold
        physical_pages = int(num_logical_pages * (1.0 + over_provision))
        num_blocks = -(-physical_pages // pages_per_block)
        num_blocks += gc_free_block_threshold + 2
        self._blocks = [_Block(i, pages_per_block) for i in range(num_blocks)]
        self._free_blocks = list(range(num_blocks - 1, 0, -1))
        self._active = self._blocks[0]
        self._mapping = [None] * num_logical_pages
        self.counters = FtlCounters()

    @property
    def free_block_count(self):
        return len(self._free_blocks)

    def physical_location(self, lpn):
        return self._mapping[lpn]

    def erase_counts(self):
        return [block.erase_count for block in self._blocks]

    def write(self, lpn):
        if not 0 <= lpn < self.num_logical_pages:
            raise IndexError(lpn)
        self.counters.logical_writes += 1
        self._program(lpn, is_relocation=False)
        while len(self._free_blocks) < self.gc_free_block_threshold:
            self._collect_one()

    def trim(self, lpn):
        location = self._mapping[lpn]
        if location is not None:
            self._invalidate(location)
            self._mapping[lpn] = None

    def _invalidate(self, location):
        block_idx, slot = location
        block = self._blocks[block_idx]
        block.slot_state[slot] = _INVALID
        block.slot_owner[slot] = -1
        block.valid_count -= 1

    def _program(self, lpn, is_relocation):
        old = self._mapping[lpn]
        if old is not None:
            self._invalidate(old)
        if self._active.write_ptr >= self.pages_per_block:
            if not self._free_blocks:
                raise FtlError("no free blocks left")
            self._active = self._blocks[self._free_blocks.pop()]
        block = self._active
        slot = block.write_ptr
        block.write_ptr += 1
        block.slot_state[slot] = _VALID
        block.slot_owner[slot] = lpn
        block.valid_count += 1
        self._mapping[lpn] = (block.index, slot)
        self.counters.physical_writes += 1
        if is_relocation:
            self.counters.gc_relocations += 1

    def _collect_one(self):
        candidates = [
            block
            for block in self._blocks
            if block.valid_count < block.write_ptr and block is not self._active
        ]
        victim = min(
            candidates, key=attrgetter("valid_count", "erase_count"), default=None
        )
        if victim is None:
            raise FtlError("garbage collection found no victim block")
        self.counters.gc_invocations += 1
        for slot in range(self.pages_per_block):
            if victim.slot_state[slot] == _VALID:
                self._program(victim.slot_owner[slot], is_relocation=True)
        victim.erase()
        self.counters.erases += 1
        self._free_blocks.append(victim.index)


def wear_state(ftl):
    return ftl.counters, ftl.erase_counts(), ftl.free_block_count


def assert_same_state(ftl, reference):
    assert wear_state(ftl) == wear_state(reference)
    assert [ftl.physical_location(p) for p in range(ftl.num_logical_pages)] == [
        reference.physical_location(p) for p in range(ftl.num_logical_pages)
    ]


def run_against_reference(operations, pages, ppb, op, threshold):
    """Apply (kind, page) operations to both FTLs, comparing as they go:
    counters, erase counts and free pool after every operation, every
    page's location at the end.

    Returns the flat FTL.  An ``FtlError`` must hit both at the same
    operation; the run stops there.
    """
    config = dict(
        pages_per_block=ppb, over_provision=op, gc_free_block_threshold=threshold
    )
    ftl = FlashTranslationLayer(pages, **config)
    reference = ReferenceFtl(pages, **config)
    for step, (kind, page) in enumerate(operations):
        outcomes = []
        for target in (ftl, reference):
            try:
                getattr(target, kind)(page)
                outcomes.append(None)
            except FtlError:
                outcomes.append(FtlError)
        assert outcomes[0] == outcomes[1], f"step {step}: {outcomes}"
        if outcomes[0] is not None:
            return ftl
        assert wear_state(ftl) == wear_state(reference), f"step {step}"
    assert_same_state(ftl, reference)
    ftl.check_invariants()
    return ftl


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
            ftl.is_mapped(-1)


class TestMapping:
    def test_unwritten_page_is_unmapped(self):
        ftl = make_ftl()
        assert not ftl.is_mapped(0)
        assert ftl.physical_location(0) is None

    def test_write_maps_page(self):
        ftl = make_ftl()
        ftl.write(5)
        assert ftl.is_mapped(5)
        assert ftl.physical_location(5) == (0, 0)

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
        """Every collection picks what the definition picks, ties included.

        The ranking is rebuilt from scratch at each pick — valid counts
        from the slot owners, sealed blocks as neither active nor free —
        so it does not lean on the index or the cached counts it checks.
        """
        ftl = make_ftl(pages=128, ppb=8, op=0.3)
        pick = ftl._pick_victim
        decided_by = set()

        def checked_pick():
            ppb = ftl.pages_per_block
            ranked = []
            for block in range(ftl.num_blocks):
                if block == ftl._active or block in ftl._free_blocks:
                    continue
                owners = ftl._owner[block * ppb : (block + 1) * ppb]
                valid = sum(owner >= 0 for owner in owners)
                if valid < ppb:
                    ranked.append((valid, ftl.erase_counts()[block], block))
            ranked.sort()
            victim = pick()
            assert victim == ranked[0][2]
            if len(ranked) > 1 and ranked[1][0] == ranked[0][0]:
                same_wear = ranked[1][1] == ranked[0][1]
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


class TestAgainstReference:
    """The flat FTL against the per-block one it replaced."""

    @pytest.mark.parametrize("ppb", [2, 4, 8, 64])
    @pytest.mark.parametrize("op,threshold", [(0.05, 1), (0.2, 2), (0.5, 3)])
    def test_seeded_churn_matches_reference(self, ppb, op, threshold):
        pages = 16 * ppb
        rng = random.Random(ppb * 100 + threshold)
        operations = [
            (
                "trim" if rng.random() < 0.05 else "write",
                rng.randrange(pages // 8 if rng.random() < 0.8 else pages),
            )
            for _ in range(40 * pages)
        ]
        ftl = run_against_reference(operations, pages, ppb, op, threshold)
        writes = sum(kind == "write" for kind, _ in operations)
        assert ftl.counters.logical_writes == writes  # ran to the end
        assert ftl.counters.gc_invocations > 10

    @settings(max_examples=40, deadline=None)
    @given(
        ppb=st.sampled_from([2, 4, 8, 64]),
        op=st.floats(0.05, 0.5),
        threshold=st.integers(1, 3),
        operations=st.lists(
            st.tuples(st.sampled_from(["write", "write", "trim"]), st.integers(0, 63)),
            min_size=1,
            max_size=300,
        ),
    )
    def test_random_operations_match_reference(self, ppb, op, threshold, operations):
        run_against_reference(operations, 64, ppb, op, threshold)


class TestWriteBatch:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 31), max_size=20), min_size=1, max_size=40)
    )
    def test_batch_is_n_single_writes(self, batches):
        batched = make_ftl(pages=32, ppb=4, op=0.1, threshold=2)
        single = make_ftl(pages=32, ppb=4, op=0.1, threshold=2)
        for batch in batches:
            batched.write_batch(batch)
            for page in batch:
                single.write(page)
            assert batched.counters == single.counters
        assert_same_state(batched, single)
        batched.check_invariants()

    def test_out_of_range_page_raises_before_writing(self):
        ftl = make_ftl(pages=8)
        for batch in ([1, 8, 2], [-1], {3: None, 9: None}):
            with pytest.raises(IndexError):
                ftl.write_batch(batch)
        assert ftl.counters == FtlCounters()
        assert not any(ftl.is_mapped(page) for page in range(8))

    def test_empty_batch_is_noop(self):
        ftl = make_ftl()
        ftl.write_batch([])
        assert ftl.counters == FtlCounters()


class TestVictimIndex:
    def test_check_invariants_sees_a_misfiled_block(self):
        ftl = make_ftl(pages=64, ppb=8)
        rng = random.Random(9)
        for _ in range(500):
            ftl.write(rng.randrange(64))
        ftl.check_invariants()
        count, ranks = next(
            (count, ranks) for count, ranks in enumerate(ftl._sealed) if ranks
        )
        rank = ranks.pop()
        ftl._sealed[count - 1 if count else count + 1].add(rank)
        with pytest.raises(AssertionError, match="victim index"):
            ftl.check_invariants()

    def test_check_invariants_sees_the_active_block_indexed(self):
        ftl = make_ftl(pages=64, ppb=8)
        for page in range(12):
            ftl.write(page)
        ftl.check_invariants()
        ftl._sealed[ftl._valid[ftl._active]].add(ftl._rank(ftl._active))
        with pytest.raises(AssertionError, match="victim index"):
            ftl.check_invariants()
