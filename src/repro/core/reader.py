"""ACE Reader: concurrent prefetch of ``n_e - 1`` pages on a buffer miss.

Paper Section IV-D.  The Reader is the optional component that exploits the
device's *read* concurrency: when the Evictor freed ``n_e`` slots, the
Reader asks its prefetcher for up to ``n_e - 1`` predictions and reads them
**in the same concurrent batch** as the page that missed.  The missed page
is installed at the most-recently-used position; prefetched pages are
installed at the least-recently-used position so that a wrong prediction is
simply dropped at the next eviction without ever costing a write.  It is a
hook of the one miss routine (``BufferPoolManager._handle_miss``, inlined
on a bare device by the executor's ``_replay_turbo``), not a routine.  It
is asked at two exits, a miss into free frames and the wide exchange at a
dirty victim; at either, a prefetch set that comes back empty reads the
one page — a batch of one through :meth:`Reader.fetch` in the routine
(a faulty device draws its fault schedule per call), the classic read
inline in the loop, at the same cost.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import IOFaultError
from repro.prefetch.base import Prefetcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.bufferpool.manager import BufferPoolManager

__all__ = ["Reader"]


class Reader:
    """Fetches a missed page plus prefetch candidates in one batch."""

    def __init__(
        self,
        manager: "BufferPoolManager",
        prefetcher: Prefetcher,
        cold_placement: bool = True,
    ) -> None:
        self.manager = manager
        self.prefetcher = prefetcher
        self.cold_placement = cold_placement

    def select_prefetch_set(self, page: int, limit: int) -> list[int]:
        """Up to ``limit`` prefetchable pages for a miss on ``page``.

        Suggestions already resident in the pool, out of device range, or
        duplicated are filtered out; the prefetcher's confidence rules
        (stream detection, fetch threshold) are applied inside ``suggest``.
        """
        suggestions = self.prefetcher.suggest(page, limit) if limit > 0 else ()
        if not suggestions:
            return []  # the usual answer: no room, or no confident prediction
        manager = self.manager
        num_pages = manager.device.num_pages
        if num_pages is None:
            num_pages = math.inf  # unbounded, but never negative
        frame_of = manager._frame_of
        selected: list[int] = []
        seen = {page}
        for candidate in suggestions:
            if candidate in seen or candidate in frame_of:
                continue
            if not 0 <= candidate < num_pages:
                continue
            seen.add(candidate)
            selected.append(candidate)
            if len(selected) == limit:
                break
        return selected

    def fetch(self, page: int, prefetch_pages: list[int]) -> int:
        """Concurrently read ``page`` + ``prefetch_pages`` and install them.

        The missed page enters hot (MRU); prefetched pages enter cold (LRU
        end) and are flagged so prefetch accuracy can be measured.  Returns
        the frame id the missed page was installed into.  A batch the pool
        cannot take (too few frames, a page resident, repeated or out of
        range) raises before anything is read or installed.
        """
        try:
            return self.manager._fetch_batch(
                [page, *prefetch_pages], self.cold_placement
            )
        except IOFaultError as fault:
            return self._fetch_degraded(page, fault)

    def _fetch_degraded(self, page: int, fault: IOFaultError) -> int:
        """A faulted prefetch batch degrades to the missed page alone.

        Prefetching is speculative, so spending retry backoff on predicted
        pages is wasted virtual time: the batch is abandoned and only the
        page the client actually asked for is (re)read, under the
        manager's retry policy.  A permanent fault on the missed page
        itself still propagates.
        """
        manager = self.manager
        manager.stats.io_faults += 1
        if fault.permanent and page in fault.pages:
            raise fault
        try:
            payload = manager.device.read_page(page)
        except IOFaultError as single_fault:
            payload = manager._read_page_with_retry(page, single_fault)
        return manager._install_fetched(page, payload)
