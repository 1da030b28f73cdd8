"""2Q replacement (Johnson & Shasha, VLDB 1994) — paper Section III-A.

The full 2Q algorithm keeps three structures:

* ``A1in``: a FIFO queue of pages seen exactly once, sized ``Kin``;
* ``A1out``: a FIFO *ghost* queue of page identifiers recently evicted from
  ``A1in`` (no frames held), sized ``Kout``;
* ``Am``: an LRU list of "hot" pages — pages re-referenced while their
  identifier was still in ``A1out``.

A first access puts a page in ``A1in``.  A hit in ``A1in`` does nothing
(correlated references).  A miss whose identifier is found in ``A1out``
promotes the page straight to ``Am``.  Victims come from ``A1in`` while it
is over its target size, otherwise from the LRU end of ``Am``.

Defaults follow the paper's recommendation: ``Kin = 25%`` and
``Kout = 50%`` of the page slots.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from itertools import islice

from repro.policies.base import ReplacementPolicy

__all__ = ["TwoQPolicy"]


class TwoQPolicy(ReplacementPolicy):
    """Full-version 2Q with A1in/A1out/Am queues."""

    name = "twoq"

    def __init__(
        self,
        capacity: int,
        kin_fraction: float = 0.25,
        kout_fraction: float = 0.5,
    ) -> None:
        super().__init__()
        if capacity < 2:
            raise ValueError("2Q needs capacity of at least 2")
        if not 0.0 < kin_fraction < 1.0:
            raise ValueError(f"kin fraction must be in (0, 1): {kin_fraction}")
        if kout_fraction <= 0.0:
            raise ValueError(f"kout fraction must be positive: {kout_fraction}")
        self.capacity = capacity
        self.kin = max(1, int(capacity * kin_fraction))
        self.kout = max(1, int(capacity * kout_fraction))
        self._a1in: OrderedDict[int, None] = OrderedDict()
        self._a1out: OrderedDict[int, None] = OrderedDict()  # ghosts only
        self._am: OrderedDict[int, None] = OrderedDict()

    # -- membership -------------------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        if page in self:
            raise ValueError(f"page {page} already tracked")
        if cold:
            # Prefetched pages go to the front of A1in: first to leave.
            self._a1in[page] = None
            self._a1in.move_to_end(page, last=False)
            return
        if page in self._a1out:
            del self._a1out[page]
            self._am[page] = None
        else:
            self._a1in[page] = None

    def remove(self, page: int) -> None:
        if page in self._a1in:
            del self._a1in[page]
            self._remember_ghost(page)
        elif page in self._am:
            del self._am[page]
        else:
            raise KeyError(f"page {page} not tracked")

    def on_access(self, page: int, is_write: bool = False) -> None:
        if page in self._am:
            self._am.move_to_end(page)
        elif page in self._a1in:
            # 2Q deliberately ignores repeated hits inside A1in.
            pass
        else:
            raise KeyError(f"page {page} not tracked")

    def _remember_ghost(self, page: int) -> None:
        self._a1out[page] = None
        while len(self._a1out) > self.kout:
            self._a1out.popitem(last=False)

    def __contains__(self, page: int) -> bool:
        return page in self._a1in or page in self._am

    def __len__(self) -> int:
        return len(self._a1in) + len(self._am)

    def pages(self) -> list[int]:
        return list(self._a1in) + list(self._am)

    def ghost_pages(self) -> list[int]:
        """Contents of the A1out ghost queue (tests/diagnostics)."""
        return list(self._a1out)

    # -- decisions ---------------------------------------------------------

    def _a1in_over_target(self) -> bool:
        return len(self._a1in) > self.kin

    def select_victim(self) -> int | None:
        if not self._pinned:
            if self._a1in_over_target():
                return next(iter(self._a1in))
            if self._am:
                return next(iter(self._am))
            # Fall back to A1in even under target if Am is empty.
            return next(iter(self._a1in), None)
        if self._a1in_over_target():
            for page in self._a1in:
                if not self._view.is_pinned(page):
                    return page
        for page in self._am:
            if not self._view.is_pinned(page):
                return page
        # Fall back to A1in even under target if Am is empty/pinned.
        for page in self._a1in:
            if not self._view.is_pinned(page):
                return page
        return None

    def eviction_order(self) -> Iterator[int]:
        # Lazy: the A1in overflow (counted on the raw queue length, as in
        # select_victim) is sliced off a shared unpinned iterator that the
        # tail then resumes, so consumers pay O(consumed), not a full
        # materialisation of both queues per call.
        is_pinned = self._view.is_pinned
        overflow = len(self._a1in) - self.kin
        a1in_iter = (p for p in self._a1in if not is_pinned(p))
        if overflow > 0:
            yield from islice(a1in_iter, overflow)
        yield from (p for p in self._am if not is_pinned(p))
        yield from a1in_iter
