"""Adaptive Replacement Cache (Megiddo & Modha, FAST 2003) — paper §III-A.

ARC balances recency and frequency with four lists:

* ``T1``: resident pages seen once recently (recency side);
* ``T2``: resident pages seen at least twice (frequency side);
* ``B1`` / ``B2``: ghost lists remembering identifiers recently evicted
  from ``T1`` / ``T2``;
* an adaptation parameter ``p`` — the target size of ``T1`` — nudged up on
  ``B1`` ghost hits and down on ``B2`` ghost hits.

The canonical algorithm is phrased as a single ``request(x)`` operation; we
decompose it onto the insert / on_access / select_victim / remove lifecycle
used by the buffer manager, preserving the adaptation and replacement rules.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from itertools import islice

from repro.policies.base import ReplacementPolicy

__all__ = ["ARCPolicy"]


class ARCPolicy(ReplacementPolicy):
    """ARC with ghost-list driven adaptation of the recency target ``p``."""

    name = "arc"

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity < 2:
            raise ValueError("ARC needs capacity of at least 2")
        self.capacity = capacity
        self.p = 0.0  # target size of T1, adapted online
        self._t1: OrderedDict[int, None] = OrderedDict()
        self._t2: OrderedDict[int, None] = OrderedDict()
        self._b1: OrderedDict[int, None] = OrderedDict()
        self._b2: OrderedDict[int, None] = OrderedDict()

    # -- membership -------------------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        if page in self:
            raise ValueError(f"page {page} already tracked")
        if cold:
            # Prefetched page: recency side, eviction end, no adaptation.
            self._t1[page] = None
            self._t1.move_to_end(page, last=False)
            self._trim_ghosts()
            return
        if page in self._b1:
            # Ghost hit in B1: the recency side was undersized.
            delta = max(1.0, len(self._b2) / max(1, len(self._b1)))
            self.p = min(float(self.capacity), self.p + delta)
            del self._b1[page]
            self._t2[page] = None
        elif page in self._b2:
            # Ghost hit in B2: the frequency side was undersized.
            delta = max(1.0, len(self._b1) / max(1, len(self._b2)))
            self.p = max(0.0, self.p - delta)
            del self._b2[page]
            self._t2[page] = None
        else:
            self._t1[page] = None
        self._trim_ghosts()

    def remove(self, page: int) -> None:
        if page in self._t1:
            del self._t1[page]
            self._b1[page] = None
        elif page in self._t2:
            del self._t2[page]
            self._b2[page] = None
        else:
            raise KeyError(f"page {page} not tracked")
        self._trim_ghosts()

    def on_access(self, page: int, is_write: bool = False) -> None:
        if page in self._t1:
            del self._t1[page]
            self._t2[page] = None
        elif page in self._t2:
            self._t2.move_to_end(page)
        else:
            raise KeyError(f"page {page} not tracked")

    def _trim_ghosts(self) -> None:
        # Canonical ARC bounds: |T1|+|B1| <= c and |T1|+|T2|+|B1|+|B2| <= 2c.
        while self._b1 and len(self._t1) + len(self._b1) > self.capacity:
            self._b1.popitem(last=False)
        while self._b2 and (
            len(self._t1) + len(self._t2) + len(self._b1) + len(self._b2)
            > 2 * self.capacity
        ):
            self._b2.popitem(last=False)

    def __contains__(self, page: int) -> bool:
        return page in self._t1 or page in self._t2

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def pages(self) -> list[int]:
        return list(self._t1) + list(self._t2)

    def ghost_sizes(self) -> tuple[int, int]:
        """Sizes of (B1, B2) — diagnostics/tests."""
        return len(self._b1), len(self._b2)

    # -- decisions ---------------------------------------------------------

    def _replace_from_t1(self) -> bool:
        """ARC's REPLACE rule: evict from T1 when it exceeds target p."""
        if not self._t1:
            return False
        if not self._t2:
            return True
        return len(self._t1) > self.p

    def select_victim(self) -> int | None:
        if not self._pinned:
            first, second = (
                (self._t1, self._t2)
                if self._replace_from_t1()
                else (self._t2, self._t1)
            )
            if first:
                return next(iter(first))
            return next(iter(second), None)
        queues = (
            (self._t1, self._t2) if self._replace_from_t1() else (self._t2, self._t1)
        )
        for queue in queues:
            for page in queue:
                if not self._view.is_pinned(page):
                    return page
        return None

    def eviction_order(self) -> Iterator[int]:
        if not self._pinned:
            # Nothing pinned: the unpinned lists are the queues themselves,
            # so the order streams lazily off the live OrderedDicts —
            # O(consumed) for ACE's short peeks instead of materialising
            # both queues per call.
            if self._replace_from_t1():
                overflow = max(1, len(self._t1) - int(self.p))
                t1_iter = iter(self._t1)
                yield from islice(t1_iter, overflow)
                yield from self._t2
                yield from t1_iter
            else:
                yield from self._t2
                yield from self._t1
            return
        t1 = [p for p in self._t1 if not self._view.is_pinned(p)]
        t2 = [p for p in self._t2 if not self._view.is_pinned(p)]
        if self._replace_from_t1():
            # T1 drains down to the target, then alternates with T2; the
            # static approximation yields the T1 overflow first.
            overflow = max(1, len(t1) - int(self.p))
            yield from t1[:overflow]
            yield from t2
            yield from t1[overflow:]
        else:
            yield from t2
            yield from t1
