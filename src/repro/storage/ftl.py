"""Flash translation layer: out-of-place writes, garbage collection, wear.

The paper measures *physical* writes (via SMART attributes) alongside
*logical* writes to show that ACE's batched write-backs do not increase SSD
wear (Table III, Figure 9), and observes physical writes running 5-6x higher
than logical writes due to garbage collection and wear-leveling.  This
module implements the mechanism that produces that gap:

* logical pages are mapped to physical (block, slot) locations;
* every update is **out-of-place**: the old slot is invalidated and the new
  version is programmed at the current write frontier;
* when the pool of free blocks runs low, greedy **garbage collection**
  relocates the valid pages of the block with the fewest valid pages and
  erases it;
* **wear-leveling** breaks GC ties towards blocks with fewer erases, keeping
  per-block erase counts balanced.

Latency is *not* modelled here — the amortised latency effect of GC is what
the device's ``alpha`` captures (see :mod:`repro.storage.latency`).  The FTL
is pure accounting: logical writes, physical writes (host programs + GC
relocations), erase counts, and the resulting write amplification.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

__all__ = ["FlashTranslationLayer", "FtlCounters", "FtlError"]

_FREE = 0
_VALID = 1
_INVALID = 2

#: Garbage collection's order of preference among candidate blocks.
_GREEDY_KEY = attrgetter("valid_count", "erase_count")


class FtlError(RuntimeError):
    """Raised when the FTL reaches an impossible state (e.g. no GC victim)."""


@dataclass
class FtlCounters:
    """Write/erase accounting exposed by the FTL."""

    logical_writes: int = 0
    physical_writes: int = 0
    gc_relocations: int = 0
    erases: int = 0
    gc_invocations: int = 0

    @property
    def write_amplification(self) -> float:
        """Physical / logical write ratio (1.0 when no writes happened)."""
        if self.logical_writes == 0:
            return 1.0
        return self.physical_writes / self.logical_writes

    def copy(self) -> "FtlCounters":
        return replace(self)

    def merge(self, other: "FtlCounters") -> None:
        """Add ``other``'s counters to these, in place (every field sums)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class _Block:
    """One erase block: per-slot state plus wear bookkeeping."""

    index: int
    pages_per_block: int
    erase_count: int = 0
    write_ptr: int = 0
    valid_count: int = 0
    slot_state: list[int] = field(default_factory=list)
    slot_owner: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.slot_state:
            self.slot_state = [_FREE] * self.pages_per_block
            self.slot_owner = [-1] * self.pages_per_block

    @property
    def is_full(self) -> bool:
        return self.write_ptr >= self.pages_per_block

    def erase(self) -> None:
        self.erase_count += 1
        self.write_ptr = 0
        self.valid_count = 0
        for i in range(self.pages_per_block):
            self.slot_state[i] = _FREE
            self.slot_owner[i] = -1


class FlashTranslationLayer:
    """Page-mapped FTL with greedy, wear-aware garbage collection.

    Parameters
    ----------
    num_logical_pages:
        Exported capacity, in pages.
    pages_per_block:
        Erase-block size in pages (flash erases whole blocks; the paper
        notes erase granularity of 4-64 MB vs page granularity of 512 B -
        32 KB, which is the root cause of asymmetry).
    over_provision:
        Fraction of extra physical capacity hidden from the host.  Smaller
        over-provisioning means GC runs with fuller blocks and write
        amplification rises — mirroring a well-utilised drive.
    gc_free_block_threshold:
        Garbage collection starts when the free-block pool drops below this
        count and runs until the pool is replenished above it.
    """

    def __init__(
        self,
        num_logical_pages: int,
        pages_per_block: int = 64,
        over_provision: float = 0.10,
        gc_free_block_threshold: int = 2,
    ) -> None:
        if num_logical_pages <= 0:
            raise ValueError("capacity must be positive")
        if pages_per_block < 2:
            raise ValueError("an erase block must hold at least 2 pages")
        if not 0.02 <= over_provision <= 1.0:
            raise ValueError(
                f"over-provision must be in [0.02, 1.0], got {over_provision}"
            )
        if gc_free_block_threshold < 1:
            raise ValueError("GC threshold must be at least 1 free block")

        self.num_logical_pages = num_logical_pages
        self.pages_per_block = pages_per_block
        self.over_provision = over_provision
        self.gc_free_block_threshold = gc_free_block_threshold

        physical_pages = int(num_logical_pages * (1.0 + over_provision))
        num_blocks = -(-physical_pages // pages_per_block)  # ceil division
        # Reserve headroom so GC always has room to relocate one full block
        # plus the free pool it must maintain.
        num_blocks += gc_free_block_threshold + 2
        self._blocks = [_Block(i, pages_per_block) for i in range(num_blocks)]
        self._free_blocks: list[int] = list(range(num_blocks - 1, 0, -1))
        self._active: _Block = self._blocks[0]
        # logical page -> (block index, slot) or None when unmapped
        self._mapping: list[tuple[int, int] | None] = [None] * num_logical_pages
        self.counters = FtlCounters()

    # ------------------------------------------------------------------ API

    @property
    def num_blocks(self) -> int:
        return len(self._blocks)

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def is_mapped(self, lpn: int) -> bool:
        """Whether logical page ``lpn`` has ever been written."""
        self._check_lpn(lpn)
        return self._mapping[lpn] is not None

    def physical_location(self, lpn: int) -> tuple[int, int] | None:
        """Current (block, slot) of ``lpn``, or ``None`` if unmapped."""
        self._check_lpn(lpn)
        return self._mapping[lpn]

    def write(self, lpn: int) -> None:
        """Record a host write of logical page ``lpn`` (out-of-place)."""
        self._check_lpn(lpn)
        self.counters.logical_writes += 1
        self._program(lpn, is_relocation=False)
        self._maybe_collect()

    def read(self, lpn: int) -> bool:
        """Record a host read; returns whether the page was ever written."""
        self._check_lpn(lpn)
        return self._mapping[lpn] is not None

    def trim(self, lpn: int) -> None:
        """Discard logical page ``lpn`` (e.g. file deletion)."""
        self._check_lpn(lpn)
        location = self._mapping[lpn]
        if location is not None:
            self._invalidate(location)
            self._mapping[lpn] = None

    def erase_counts(self) -> list[int]:
        """Per-block erase counts (wear-leveling diagnostics)."""
        return [block.erase_count for block in self._blocks]

    def reset_counters(self) -> None:
        """Zero the write/erase counters without touching the mapping."""
        self.counters = FtlCounters()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if internal bookkeeping is inconsistent.

        Used by the property-based test suite: total valid slots must equal
        the number of mapped logical pages, every mapping must point at a
        VALID slot owned by that page, and valid counts must be exact.
        """
        mapped = 0
        for lpn, location in enumerate(self._mapping):
            if location is None:
                continue
            mapped += 1
            block_idx, slot = location
            block = self._blocks[block_idx]
            assert block.slot_state[slot] == _VALID, (
                f"lpn {lpn} maps to non-valid slot {location}"
            )
            assert block.slot_owner[slot] == lpn, (
                f"slot {location} owned by {block.slot_owner[slot]}, not {lpn}"
            )
        total_valid = sum(block.valid_count for block in self._blocks)
        assert total_valid == mapped, f"valid slots {total_valid} != mapped {mapped}"
        for block in self._blocks:
            actual = sum(1 for s in block.slot_state if s == _VALID)
            assert actual == block.valid_count, (
                f"block {block.index}: counted {actual} valid, cached "
                f"{block.valid_count}"
            )

    # ------------------------------------------------------------- internals

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_logical_pages:
            raise IndexError(
                f"logical page {lpn} out of range [0, {self.num_logical_pages})"
            )

    def _invalidate(self, location: tuple[int, int]) -> None:
        block_idx, slot = location
        block = self._blocks[block_idx]
        block.slot_state[slot] = _INVALID
        block.slot_owner[slot] = -1
        block.valid_count -= 1

    def _program(self, lpn: int, is_relocation: bool) -> None:
        old = self._mapping[lpn]
        if old is not None:
            self._invalidate(old)
        if self._active.is_full:
            self._open_new_active()
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

    def _open_new_active(self) -> None:
        if not self._free_blocks:
            raise FtlError(
                "no free blocks left: over-provisioning exhausted "
                "(GC threshold too low for this write pattern)"
            )
        self._active = self._blocks[self._free_blocks.pop()]

    def _maybe_collect(self) -> None:
        while len(self._free_blocks) < self.gc_free_block_threshold:
            self._collect_one()

    def _collect_one(self) -> None:
        victim = self._pick_victim()
        if victim is None:
            raise FtlError("garbage collection found no victim block")
        self.counters.gc_invocations += 1
        for slot in range(self.pages_per_block):
            if victim.slot_state[slot] == _VALID:
                self._program(victim.slot_owner[slot], is_relocation=True)
        victim.erase()
        self.counters.erases += 1
        self._free_blocks.append(victim.index)

    def _pick_victim(self) -> _Block | None:
        """Greedy victim choice: fewest valid pages, wear-aware tie-break.

        Candidates are the blocks with an invalid slot — erasing any other
        would shuffle data without reclaiming space (and could loop
        forever); that also rules out the erased blocks of the free pool.
        ``min`` keeps the first of equal keys: the lowest block index.
        """
        active = self._active
        candidates = [
            block
            for block in self._blocks
            if block.valid_count < block.write_ptr and block is not active
        ]
        return min(candidates, key=_GREEDY_KEY, default=None)
