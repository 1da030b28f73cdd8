"""Least Recently Used replacement.

The paper implements LRU in PostgreSQL as an "LRU freelist queue" and builds
CFLRU and LRU-WSR on top of it; we mirror that layering
(:class:`~repro.policies.cflru.CFLRUPolicy` and
:class:`~repro.policies.lru_wsr.LRUWSRPolicy` subclass this class).

The implementation is an ordered map: iteration order runs from the
least-recently-used page (eviction end) to the most-recently-used page.

Dirty state is not mirrored here.  Under a notifying view (the buffer
manager) ``next_dirty(n)`` / ``next_clean(n)`` are a filtered scan of the
LRU order through the view's ``is_dirty`` — the manager's dirty set's own
``__contains__``, so the scan runs in C — and plain LRU listens to no
dirty/clean transition.  The scans are shallow: the dirty pages sit near
the eviction end, so a batch of ``n_w`` reads little more than ``n_w``
entries (docs/architecture.md, "Virtual-order engine").

Each per-request hook is one ordered-map operation, so :meth:`hooks`
hands the executor's inlined loop the map's own bound methods; a hook
overridden in a subclass or on the instance is handed over as is.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from itertools import filterfalse, islice

from repro.policies.base import ReplacementPolicy, inherited

__all__ = ["LRUPolicy"]


class LRUPolicy(ReplacementPolicy):
    """Classic LRU over an ordered map (O(1) hit/insert/remove)."""

    name = "lru"

    def __init__(self) -> None:
        super().__init__()
        # Front (first item) = least recently used = next eviction candidate.
        self._order: OrderedDict[int, None] = OrderedDict()

    # -- membership -------------------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        if page in self._order:
            raise ValueError(f"page {page} already tracked")
        self._order[page] = None
        if cold:
            # Eviction end: the paper places prefetched pages in the
            # least-recently-used position so mispredictions drop cheaply.
            self._order.move_to_end(page, last=False)

    def remove(self, page: int) -> None:
        if page not in self._order:
            raise KeyError(f"page {page} not tracked")
        del self._order[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        try:
            self._order.move_to_end(page)
        except KeyError:
            raise KeyError(f"page {page} not tracked") from None

    def __contains__(self, page: int) -> bool:
        return page in self._order

    def __len__(self) -> int:
        return len(self._order)

    def pages(self) -> list[int]:
        return list(self._order)

    def lru_to_mru(self) -> list[int]:
        """Pages from least to most recently used (for subclasses/tests)."""
        return list(self._order)

    def hooks(self) -> tuple:
        # A hook this class defines is one ordered-map call on a page the
        # table vouches for: hand over the map's method (``move_to_end``
        # with ``last`` omitted or True, ``order[page] = None``, ``del``).
        # An override, in a subclass or on the instance, is published as is.
        hit, insert, remove, dirtied, cleaned = super().hooks()
        order = self._order
        if inherited(hit, LRUPolicy.on_access):
            hit = order.move_to_end
        if inherited(insert, LRUPolicy.insert):
            insert = order.__setitem__
        if inherited(remove, LRUPolicy.remove):
            remove = order.__delitem__
        return hit, insert, remove, dirtied, cleaned

    # -- decisions ---------------------------------------------------------

    def select_victim(self) -> int | None:
        if self._notified and not self._pinned_pages:
            return next(iter(self._order), None)
        for page in self._order:
            if not self._view.is_pinned(page):
                return page
        return None

    def eviction_order(self) -> Iterator[int]:
        # Iterate the live order directly: consumers materialise their
        # result before mutating the policy, and the copy-free path keeps
        # ACE's frequent virtual-order peeks O(consumed) not O(pool).
        for page in self._order:
            if not self._view.is_pinned(page):
                yield page

    # -- maintained fast paths ---------------------------------------------

    def peek(self, n: int) -> list[int]:
        if self._notified and not self._pinned_pages:
            if n < 0:
                raise ValueError(f"n must be non-negative: {n}")
            return list(islice(self._order, n))
        return self._reference_peek(n)

    def next_dirty(self, n: int) -> list[int]:
        if self._notified and not self._pinned_pages:
            if n < 0:
                raise ValueError(f"n must be non-negative: {n}")
            return list(islice(filter(self._view.is_dirty, self._order), n))
        return self._reference_next_dirty(n)

    def next_clean(self, n: int) -> list[int]:
        if self._notified and not self._pinned_pages:
            if n < 0:
                raise ValueError(f"n must be non-negative: {n}")
            return list(islice(filterfalse(self._view.is_dirty, self._order), n))
        return self._reference_next_clean(n)
