"""Bufferpool statistics: hits, misses, evictions, write-backs, prefetching.

These counters feed the paper's reported metrics: buffer misses/hits
(Table III), logical writes (client write requests reaching the bufferpool),
write-backs (pages flushed to the device), and prefetch accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["BufferStats"]


# ``slots=True``: the manager increments these counters on every request,
# so the attribute writes bypass a per-instance dict.
@dataclass(slots=True)
class BufferStats:
    """Counters maintained by the buffer manager."""

    #: Page requests served from memory / requiring device I/O.
    hits: int = 0
    misses: int = 0
    #: Client-level read/write page requests (a write request dirties a page).
    read_requests: int = 0
    write_requests: int = 0
    #: Pages removed from the pool, split by their state at eviction time.
    evictions: int = 0
    clean_evictions: int = 0
    dirty_evictions: int = 0
    #: Pages written back to the device and the batches used to do so.
    writebacks: int = 0
    writeback_batches: int = 0
    #: Write-backs initiated by background processes (writer/checkpointer).
    background_writebacks: int = 0
    #: Prefetching effectiveness.
    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_unused: int = 0
    #: Fault handling (see repro.faults): device faults the manager saw,
    #: retries it issued, and backoff time charged to the virtual clock
    #: (ticks).
    io_faults: int = 0
    io_retries: int = 0
    retry_backoff_ticks: int = 0
    #: Write-back degradation: batches that landed partially (torn or
    #: mixed), pages abandoned dirty after retries, and evictions that
    #: fell back to a different (clean) candidate.
    degraded_writebacks: int = 0
    failed_writebacks: int = 0
    degraded_evictions: int = 0
    #: Data integrity: reads that tripped a checksum failure, and pages
    #: healed in place from a WAL redo image (see repro.bufferpool.repair).
    corrupt_page_reads: int = 0
    pages_repaired: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    @property
    def mean_writeback_batch(self) -> float:
        """Average write-back batch size — ~1 for classic, ~n_w for ACE."""
        if self.writeback_batches == 0:
            return 0.0
        return self.writebacks / self.writeback_batches

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched pages that were accessed before eviction."""
        used_or_wasted = self.prefetch_hits + self.prefetch_unused
        if used_or_wasted == 0:
            return 0.0
        return self.prefetch_hits / used_or_wasted

    def copy(self) -> "BufferStats":
        return replace(self)

    def merge(self, other: "BufferStats") -> None:
        """Add ``other``'s counters to these, in place (every field sums)."""
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
