"""LRU with Write Sequence Reordering (LRU-WSR) — paper Fig. 4c.

LRU-WSR delays evicting *cold dirty* pages to reduce flash writes.  Every
page carries a **cold flag**, cleared whenever the page is referenced.  At
eviction time:

* a clean candidate is evicted regardless of its cold flag;
* a dirty candidate with the cold flag **set** is evicted;
* a dirty candidate with the cold flag **clear** gets a second chance: the
  flag is set and the page moves to the most-recently-used position, and
  the search continues down the LRU order.

Both decisions read dirty state through the view's ``is_dirty`` (the
manager's dirty set, in C): ``select_victim`` probes candidates one
lookup each, and ``next_dirty(n)`` is two passes over the LRU order
filtered to its dirty pages (cold dirty pages first — they are evicted
where they stand — then the not-cold ones in the order they would be
deferred to the MRU end).
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import partial
from itertools import filterfalse

from repro.policies.lru import LRUPolicy

__all__ = ["LRUWSRPolicy"]


class LRUWSRPolicy(LRUPolicy):
    """LRU-WSR: second chance for hot dirty pages via a cold flag."""

    name = "lru_wsr"

    def __init__(self) -> None:
        super().__init__()
        self._cold: dict[int, bool] = {}

    # -- membership -------------------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        super().insert(page, cold=cold)
        # A freshly inserted page starts "not cold": it was just referenced.
        # A prefetched (cold) insert starts with the flag set so that a
        # wrong prediction is evicted immediately even if it gets dirtied.
        self._cold[page] = cold

    def remove(self, page: int) -> None:
        super().remove(page)
        del self._cold[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        super().on_access(page, is_write)
        self._cold[page] = False

    def is_cold(self, page: int) -> bool:
        """Current cold-flag value (diagnostics/tests)."""
        return self._cold[page]

    # -- decisions ---------------------------------------------------------

    def _defer(self, candidate: int) -> None:
        """Second chance: set the cold flag, rotate to the MRU position."""
        self._cold[candidate] = True
        self._order.move_to_end(candidate)

    def select_victim(self) -> int | None:
        # At most one full pass can defer pages; after that every dirty page
        # has its cold flag set and the next candidate wins.  A candidate is
        # the LRU page, the first unpinned one while any page is pinned.
        first = partial(filterfalse, self._view.is_pinned) if self._pinned else iter
        order = self._order
        is_dirty = self._view.is_dirty
        cold = self._cold
        for _ in range(2 * len(order) + 1):
            candidate = next(first(order), None)
            if candidate is None:
                return None
            if not is_dirty(candidate) or cold[candidate]:
                return candidate
            # Dirty and not cold: second chance.
            self._defer(candidate)
        return None

    def eviction_order(self) -> Iterator[int]:
        """Virtual order with simulated second chances (no side effects).

        First pass over the LRU order emits clean pages and cold dirty
        pages; dirty non-cold pages are deferred (they would be moved to
        the MRU position with the flag set) and emitted afterwards in the
        order they were deferred.
        """
        deferred: list[int] = []
        for page in self._order:
            if self._view.is_pinned(page):
                continue
            if not self._view.is_dirty(page) or self._cold[page]:
                yield page
            else:
                deferred.append(page)
        yield from deferred

    # -- maintained fast paths ---------------------------------------------
    #
    # next_clean is inherited from LRUPolicy: the deferred pages are all
    # dirty, so the clean subsequence of the virtual order is exactly the
    # clean pages in LRU order.

    def peek(self, n: int) -> list[int]:
        if self._pinned or n < 0:
            return super().peek(n)
        selected: list[int] = []
        if n == 0:
            return selected
        is_dirty = self._view.is_dirty
        cold = self._cold
        deferred: list[int] = []
        for page in self._order:
            if is_dirty(page) and not cold[page]:
                if len(deferred) < n:
                    deferred.append(page)
            else:
                selected.append(page)
                if len(selected) == n:
                    return selected
        for page in deferred:
            selected.append(page)
            if len(selected) == n:
                break
        return selected

    def next_dirty(self, n: int) -> list[int]:
        if self._pinned or n < 0:
            return super().next_dirty(n)
        selected: list[int] = []
        if n == 0:
            return selected
        cold = self._cold
        is_dirty = self._view.is_dirty
        for page in filter(is_dirty, self._order):
            if cold[page]:
                selected.append(page)
                if len(selected) == n:
                    return selected
        for page in filter(is_dirty, self._order):
            if not cold[page]:
                selected.append(page)
                if len(selected) == n:
                    break
        return selected
