"""ACE Evictor: drop one or ``n_e`` (clean) pages in virtual order.

Paper Section IV-C.  After the Writer has cleaned the head of the virtual
order, the Evictor decides *how many* pages to drop: one (classic locality-
preserving behaviour) or ``n_e`` (making room for the Reader to prefetch
``n_e - 1`` pages).  Which pages are dropped still follows the replacement
policy's virtual order — the Evictor adds no ordering of its own, which is
why ACE composes with any replacement algorithm.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.bufferpool.manager import BufferPoolManager

__all__ = ["Evictor"]


class Evictor:
    """Drops eviction candidates selected from the policy's virtual order."""

    def __init__(self, manager: "BufferPoolManager", n_e: int) -> None:
        if n_e < 1:
            raise ValueError(f"n_e must be at least 1: {n_e}")
        self.manager = manager
        self.n_e = n_e

    def select_eviction_set(self, victim: int) -> list[int]:
        """Up to ``n_e`` pages to evict, led by the current victim.

        ``peek`` is the policy's bulk virtual-order fast path; the victim
        is normally its head, so asking for ``n_e`` candidates covers the
        ``n_e - 1`` non-victim pages needed either way.
        """
        n_e = self.n_e
        pages = self.manager.policy.peek(n_e)
        if pages and pages[0] == victim:
            return pages  # the victim heads the virtual order: the usual case
        return [victim] + [page for page in pages if page != victim][: n_e - 1]

    def evict(self, pages: list[int]) -> int:
        """Drop the given pages from the bufferpool.

        Pages that are (still) dirty — a degraded write-back can leave a
        candidate unclean — are skipped rather than dropped: losing an
        unflushed update is never an acceptable fallback.  The clean ones
        leave in one manager call.
        """
        manager = self.manager
        clean = list(filterfalse(manager._dirty_set.__contains__, pages))
        manager._evict(clean)
        return len(clean)
