"""ACE Writer: concurrent write-back of the next ``n_w`` dirty pages.

Paper Section IV-B.  The Writer materialises the write-back policy of the
augmented design space: it picks the next ``n_w`` *dirty* pages in the
replacement policy's virtual eviction order (``populate_pages_to_writeback``
in Algorithm 1) and flushes them in a single concurrent device batch.  With
``n_w = k_w`` the batch completes at the latency of one write, amortising
the asymmetric write cost and making the following evictions "free" — they
will, with high probability, target clean pages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.bufferpool.manager import BufferPoolManager

__all__ = ["Writer"]


class Writer:
    """Selects and concurrently flushes write-back candidates."""

    def __init__(self, manager: "BufferPoolManager", n_w: int) -> None:
        if n_w < 1:
            raise ValueError(f"n_w must be at least 1: {n_w}")
        self.manager = manager
        self.n_w = n_w

    def select_writeback_set(self, victim: int) -> list[int]:
        """The paper's ``populate_pages_to_writeback()``.

        Returns up to ``n_w`` dirty pages led by the current (dirty) victim,
        followed by the next dirty pages in the policy's virtual order —
        ``next_dirty`` is the policy's maintained fast path, so this is one
        bulk read of the dirty sub-order rather than a filtered rescan.
        """
        n_w = self.n_w
        pages = self.manager.policy.next_dirty(n_w)
        if pages and pages[0] == victim:
            return pages  # the victim heads the dirty sub-order: the usual case
        return [victim] + [page for page in pages if page != victim][: n_w - 1]

    def flush(self, pages: list[int]) -> int:
        """Issue one concurrent write batch and mark the pages clean.

        Under fault injection the manager's write-back may land only part
        of the batch (``written < len(pages)``); the remainder stays dirty
        and the eviction degrades accordingly.
        """
        return self.manager._write_back(pages)
