"""The frame pool: fixed array of page frames plus a free list.

Mirrors PostgreSQL's shared buffer array: frames are identified by a stable
``frame_id`` (PostgreSQL's ``buffer_id``) and hold the page payload.  The
simulator stores a small Python object per frame (typically a version
counter) instead of 8 KB of bytes.

A frame's state is four columns indexed by frame id (``page_of`` with
``-1`` for a free frame, ``dirty_bits``, ``pin_counts``,
``prefetched_bits``), the only record of it: the request paths, the
sanitizer and crash simulation all read and write the preallocated ints.
"""

from __future__ import annotations

__all__ = ["FramePool"]


class FramePool:
    """Fixed-capacity pool of frames with O(1) allocate/free."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"pool capacity must be positive: {capacity}")
        self.capacity = capacity
        #: Parallel per-frame state arrays — the authoritative record.
        self.page_of: list[int] = [-1] * capacity
        self.dirty_bits: list[int] = [0] * capacity
        self.pin_counts: list[int] = [0] * capacity
        self.prefetched_bits: list[int] = [0] * capacity
        self._payloads: list[object | None] = [None] * capacity
        self._free: list[int] = list(range(capacity - 1, -1, -1))

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def used_count(self) -> int:
        return self.capacity - len(self._free)

    def has_free(self) -> bool:
        return bool(self._free)

    def allocate_frame(self) -> int:
        """Take a free frame id; raises ``RuntimeError`` if none is free."""
        if not self._free:
            raise RuntimeError("frame pool exhausted — evict before allocating")
        return self._free.pop()
