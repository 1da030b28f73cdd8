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

from collections.abc import Collection
from dataclasses import dataclass, replace

__all__ = ["FlashTranslationLayer", "FtlCounters", "FtlError"]


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

    State is flat integer lists, like the buffer table's.  Slot ``s`` is
    slot ``s % pages_per_block`` of block ``s // pages_per_block``.  A block
    is free, *active* (programmed up to ``_frontier < _end``; kept when full
    until a program needs room) or *sealed* (full).
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
        # Physical slot -> logical page, and logical page -> physical slot;
        # -1 for a free or invalid slot and an unmapped page.
        self._owner = [-1] * (num_blocks * pages_per_block)
        self._mapping = [-1] * num_logical_pages
        self._valid = [0] * num_blocks
        self._erases = [0] * num_blocks
        self._free_blocks: list[int] = list(range(num_blocks - 1, 0, -1))
        self._active = self._frontier = 0
        self._end = pages_per_block
        # The victim index: _sealed[v] holds each sealed block with v valid
        # slots; _rank_of[b] orders equal buckets, least worn then lowest
        # index (erases * num_blocks + b, grown by num_blocks per erase).
        self._sealed: list[set[int]] = [set() for _ in range(pages_per_block + 1)]
        self._rank_of = list(range(num_blocks))
        self.counters = FtlCounters()

    # ------------------------------------------------------------------ API

    @property
    def num_blocks(self) -> int:
        return len(self._valid)

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def is_mapped(self, lpn: int) -> bool:
        """Whether logical page ``lpn`` has ever been written."""
        self._check_lpn(lpn)
        return self._mapping[lpn] >= 0

    def physical_location(self, lpn: int) -> tuple[int, int] | None:
        """Current (block, slot) of ``lpn``, or ``None`` if unmapped."""
        self._check_lpn(lpn)
        slot = self._mapping[lpn]
        return None if slot < 0 else divmod(slot, self.pages_per_block)

    def write(self, lpn: int) -> None:
        """Record a host write of logical page ``lpn`` (out-of-place)."""
        self.write_batch((lpn,))

    def write_batch(self, lpns: Collection[int]) -> None:
        """Record host writes of ``lpns`` in order: ``n`` × :meth:`write`.

        One loop over locals: each overwrite invalidates its old slot in
        place, and the active block's valid count is settled once per
        stretch.  Only opening a block shrinks the free pool, so GC is
        checked right after a block opens — where per-page checks would
        fire.  An out-of-range page raises ``IndexError`` before anything
        is written.
        """
        if not lpns:
            return
        low, high = min(lpns), max(lpns)
        if low < 0 or high >= self.num_logical_pages:
            self._check_lpn(low if low < 0 else high)
        counters = self.counters
        counters.logical_writes += len(lpns)
        counters.physical_writes += len(lpns)
        mapping, owner, valid = self._mapping, self._owner, self._valid
        sealed, ppb = self._sealed, self.pages_per_block
        active, slot, end = self._active, self._frontier, self._end
        start = slot
        for lpn in lpns:
            old = mapping[lpn]
            if old >= 0:
                owner[old] = -1
                block = old // ppb
                count = valid[block]
                valid[block] = count - 1
                if block != active:  # sealed: one bucket down
                    sealed[count].remove(block)
                    sealed[count - 1].add(block)
            if slot != end:
                owner[slot] = lpn
                mapping[lpn] = slot
                slot += 1
                continue
            # The active block is full: settle it, seal it, open the next.
            valid[active] += slot - start
            self._frontier = slot
            slot = self._open_new_active()
            owner[slot] = lpn
            mapping[lpn] = slot
            valid[self._active] += 1
            self._frontier = slot + 1
            if len(self._free_blocks) < self.gc_free_block_threshold:
                self._collect()
            active, slot, end = self._active, self._frontier, self._end
            start = slot
        valid[active] += slot - start
        self._frontier = slot

    def erase_counts(self) -> list[int]:
        """Per-block erase counts (wear-leveling diagnostics)."""
        return list(self._erases)

    def reset_counters(self) -> None:
        """Zero the write/erase counters without touching the mapping."""
        self.counters = FtlCounters()

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` unless mapping and slot owners are
        inverse, valid counts exact, no data lies past the frontier, and the
        victim index holds exactly the sealed blocks by valid count and rank.
        """
        owner, ppb, valid = self._owner, self.pages_per_block, self._valid
        mapped = [(slot, lpn) for lpn, slot in enumerate(self._mapping) if slot >= 0]
        live = [(slot, lpn) for slot, lpn in enumerate(owner) if lpn >= 0]
        assert sorted(mapped) == live, "mapping and slot owners disagree"
        assert valid == [
            ppb - owner[block * ppb : (block + 1) * ppb].count(-1)
            for block in range(self.num_blocks)
        ], "stale valid count"
        unwritten = owner[self._frontier : self._end]
        assert unwritten.count(-1) == len(unwritten), "data past the frontier"
        sealed = set(range(self.num_blocks)) - {self._active, *self._free_blocks}
        assert sorted(
            (count, b) for count, blocks in enumerate(self._sealed) for b in blocks
        ) == sorted((valid[b], b) for b in sealed), "victim index stale"
        assert self._rank_of == [
            erases * self.num_blocks + b for b, erases in enumerate(self._erases)
        ], "victim index ranks stale"

    # ------------------------------------------------------------- internals

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_logical_pages:
            raise IndexError(
                f"logical page {lpn} out of range [0, {self.num_logical_pages})"
            )

    def _open_new_active(self) -> int:
        """Seal the full active block, open the next free one; its 1st slot."""
        if not self._free_blocks:
            raise FtlError(
                "no free blocks left: over-provisioning exhausted "
                "(GC threshold too low for this write pattern)"
            )
        full = self._active
        self._sealed[self._valid[full]].add(full)
        self._active = self._free_blocks.pop()
        self._frontier = self._active * self.pages_per_block
        self._end = self._frontier + self.pages_per_block
        return self._frontier

    def _collect(self) -> None:
        """Collect victims until the free pool is back at the threshold.

        Live pages move to the frontier in slot order as runs, opening a
        block where page-by-page programming would; the erase blanks the
        victim's slots, not one invalidation each.
        """
        owner, mapping, valid = self._owner, self._mapping, self._valid
        counters, ppb = self.counters, self.pages_per_block
        while len(self._free_blocks) < self.gc_free_block_threshold:
            victim = self._pick_victim()
            start = victim * ppb
            live = list(filter((-1).__ne__, owner[start : start + ppb]))
            counters.gc_invocations += 1
            counters.physical_writes += len(live)
            counters.gc_relocations += len(live)
            while live:
                if self._frontier == self._end:
                    self._open_new_active()
                frontier = self._frontier
                run = live[: self._end - frontier]
                del live[: len(run)]
                owner[frontier : frontier + len(run)] = run
                for slot, lpn in enumerate(run, frontier):
                    mapping[lpn] = slot
                valid[self._active] += len(run)
                self._frontier = frontier + len(run)
            owner[start : start + ppb] = [-1] * ppb
            valid[victim] = 0
            self._erases[victim] += 1
            self._rank_of[victim] += len(valid)
            self._free_blocks.append(victim)
            counters.erases += 1

    def _pick_victim(self) -> int:
        """Take the greedy victim out of the index: fewest valid pages, then
        fewest erases, then lowest index.  Only blocks with an invalid slot
        qualify (erasing any other reclaims nothing, and could loop).
        """
        bucket = next(filter(None, self._sealed[: self.pages_per_block]), None)
        if bucket is None:
            raise FtlError("garbage collection found no victim block")
        victim = min(bucket, key=self._rank_of.__getitem__)
        bucket.remove(victim)
        return victim
