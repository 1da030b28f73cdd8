"""LIRS: Low Inter-reference Recency Set replacement (Jiang & Zhang, 2002).

LIRS ranks pages by *reuse distance* (inter-reference recency, IRR) rather
than recency alone, which makes it scan-resistant where LRU collapses:

* **LIR** pages (low IRR — re-referenced quickly) own most of the cache;
* **HIR** pages (high IRR or seen once) pass through a small resident
  queue ``Q``;
* the **stack S** records recency of LIR pages, resident HIR pages, and a
  bounded set of *non-resident* HIR ghosts.  A hit on an HIR page that is
  still in S proves a low IRR, so the page is promoted to LIR and the LIR
  page at S's bottom is demoted.

This implementation keeps the canonical S/Q structures with stack pruning
and bounds non-resident ghosts to the cache size.  Victims always come
from the front of Q (resident HIR pages), falling back to demoting the
coldest LIR page when Q is empty.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

from repro.policies.base import ReplacementPolicy

__all__ = ["LIRSPolicy"]

_LIR = "lir"
_HIR = "hir"            # resident HIR
_GHOST = "ghost"        # non-resident HIR (metadata only)


class LIRSPolicy(ReplacementPolicy):
    """LIRS with a configurable HIR-queue share of the capacity."""

    name = "lirs"

    def __init__(self, capacity: int, hir_fraction: float = 0.05) -> None:
        super().__init__()
        if capacity < 2:
            raise ValueError("LIRS needs capacity of at least 2")
        if not 0.0 < hir_fraction < 1.0:
            raise ValueError(f"hir fraction must be in (0, 1): {hir_fraction}")
        self.capacity = capacity
        self.hir_target = max(1, int(capacity * hir_fraction))
        self.lir_target = capacity - self.hir_target
        # Stack S: recency order (front = coldest). Values: status string.
        self._stack: OrderedDict[int, str] = OrderedDict()
        # Queue Q: resident HIR pages in FIFO order.
        self._queue: OrderedDict[int, None] = OrderedDict()
        # All resident pages and their status (_LIR or _HIR).
        self._status: dict[int, str] = {}
        self._lir_count = 0
        # Ghost entries in the stack, maintained incrementally so bounding
        # them is O(1) when under budget instead of a full stack scan on
        # every insert.
        self._ghost_count = 0

    # ------------------------------------------------------------ helpers

    def _prune_stack(self) -> None:
        """Remove HIR/ghost entries from the stack bottom (canonical)."""
        while self._stack:
            page = next(iter(self._stack))
            status = self._stack[page]
            if status == _LIR:
                break
            if status == _GHOST:
                self._ghost_count -= 1
            del self._stack[page]

    def _bound_ghosts(self) -> None:
        excess = self._ghost_count - self.capacity
        if excess <= 0:
            return
        doomed: list[int] = []
        for page, status in self._stack.items():
            if status == _GHOST:
                doomed.append(page)
                if len(doomed) == excess:
                    break
        for page in doomed:
            del self._stack[page]
        self._ghost_count -= len(doomed)

    def _demote_coldest_lir(self) -> None:
        """Move the stack-bottom LIR page to the HIR queue."""
        for page, status in self._stack.items():
            if status == _LIR:
                del self._stack[page]
                self._status[page] = _HIR
                self._queue[page] = None
                self._lir_count -= 1
                self._prune_stack()
                return

    # -- membership -------------------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        if page in self._status:
            raise ValueError(f"page {page} already tracked")
        was_ghost = self._stack.get(page) == _GHOST
        if cold:
            # Prefetched pages go straight to the HIR queue's front.
            self._status[page] = _HIR
            self._queue[page] = None
            self._queue.move_to_end(page, last=False)
            if self._stack.pop(page, None) == _GHOST:
                self._ghost_count -= 1
            return
        if self._lir_count < self.lir_target:
            # Warm-up: fill the LIR set first.
            self._status[page] = _LIR
            self._stack[page] = _LIR
            self._lir_count += 1
            return
        if was_ghost:
            # Reappearing within stack memory: low IRR, promote to LIR.
            self._ghost_count -= 1
            self._stack[page] = _LIR
            self._stack.move_to_end(page)
            self._status[page] = _LIR
            self._lir_count += 1
            if self._lir_count > self.lir_target:
                self._demote_coldest_lir()
        else:
            self._status[page] = _HIR
            self._stack[page] = _HIR
            self._stack.move_to_end(page)
            self._queue[page] = None
        self._bound_ghosts()

    def remove(self, page: int) -> None:
        status = self._status.pop(page, None)
        if status is None:
            raise KeyError(f"page {page} not tracked")
        self._queue.pop(page, None)
        if status == _LIR:
            self._lir_count -= 1
            self._stack.pop(page, None)
            self._prune_stack()
        elif page in self._stack:
            # Evicted HIR page leaves a ghost: its next appearance within
            # stack memory proves a low IRR.
            self._stack[page] = _GHOST
            self._ghost_count += 1

    def on_access(self, page: int, is_write: bool = False) -> None:
        status = self._status.get(page)
        if status is None:
            raise KeyError(f"page {page} not tracked")
        if status == _LIR:
            self._stack[page] = _LIR
            self._stack.move_to_end(page)
            self._prune_stack()
            return
        # Resident HIR hit.
        if page in self._stack:
            # Low IRR: promote to LIR, demote the coldest LIR page.
            self._stack[page] = _LIR
            self._stack.move_to_end(page)
            self._status[page] = _LIR
            self._lir_count += 1
            self._queue.pop(page, None)
            if self._lir_count > self.lir_target:
                self._demote_coldest_lir()
        else:
            # High IRR: stay HIR, refresh queue position and re-enter S.
            self._stack[page] = _HIR
            self._stack.move_to_end(page)
            self._queue.move_to_end(page)

    def __contains__(self, page: int) -> bool:
        return page in self._status

    def __len__(self) -> int:
        return len(self._status)

    def pages(self) -> list[int]:
        return list(self._status)

    def status_of(self, page: int) -> str:
        """"lir" or "hir" for a resident page (tests/diagnostics)."""
        return self._status[page]

    # -- decisions ---------------------------------------------------------

    def _victim_order(self) -> Iterator[int]:
        # Resident HIR pages leave first (FIFO), then LIR pages by stack
        # recency (coldest first).
        for page in self._queue:
            yield page
        for page, status in self._stack.items():
            if status == _LIR:
                yield page

    def select_victim(self) -> int | None:
        if not self._pinned:
            # Nothing pinned: the victim is the queue's front (or, with an
            # empty queue, the coldest LIR page) — no per-page view calls.
            return next(self._victim_order(), None)
        for page in self._victim_order():
            if not self._view.is_pinned(page):
                return page
        return None

    def eviction_order(self) -> Iterator[int]:
        for page in self._victim_order():
            if not self._view.is_pinned(page):
                yield page
