"""FIFO and Second Chance replacement (paper Section III-A related policies).

These are not part of the paper's evaluation quartet, but the paper's thesis
is that ACE wraps *any* replacement algorithm; including the simplest
policies lets the test suite demonstrate exactly that.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

from repro.policies.base import ReplacementPolicy

__all__ = ["FIFOPolicy", "SecondChancePolicy"]


class FIFOPolicy(ReplacementPolicy):
    """First-in first-out: eviction order is insertion order; hits are free."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._order: OrderedDict[int, None] = OrderedDict()

    def insert(self, page: int, cold: bool = False) -> None:
        if page in self._order:
            raise ValueError(f"page {page} already tracked")
        self._order[page] = None
        if cold:
            self._order.move_to_end(page, last=False)

    def remove(self, page: int) -> None:
        if page not in self._order:
            raise KeyError(f"page {page} not tracked")
        del self._order[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        if page not in self._order:
            raise KeyError(f"page {page} not tracked")
        # FIFO ignores accesses by definition.

    def __contains__(self, page: int) -> bool:
        return page in self._order

    def __len__(self) -> int:
        return len(self._order)

    def pages(self) -> list[int]:
        return list(self._order)

    def select_victim(self) -> int | None:
        if self._notified and not self._pinned_pages:
            return next(iter(self._order), None)
        for page in self._order:
            if not self._view.is_pinned(page):
                return page
        return None

    def eviction_order(self) -> Iterator[int]:
        # Live iteration (consumers materialise before mutating): the
        # virtual order costs O(consumed), not an O(pool) copy per call.
        for page in self._order:
            if not self._view.is_pinned(page):
                yield page


class SecondChancePolicy(FIFOPolicy):
    """FIFO with a reference bit: referenced pages get one more lap."""

    name = "second_chance"

    def __init__(self) -> None:
        super().__init__()
        self._referenced: dict[int, bool] = {}

    def insert(self, page: int, cold: bool = False) -> None:
        super().insert(page, cold=cold)
        self._referenced[page] = False

    def remove(self, page: int) -> None:
        super().remove(page)
        del self._referenced[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        super().on_access(page, is_write)
        self._referenced[page] = True

    def select_victim(self) -> int | None:
        if self._notified and not self._pinned_pages:
            order = self._order
            referenced = self._referenced
            for _ in range(2 * len(order) + 1):
                candidate = next(iter(order), None)
                if candidate is None:
                    return None
                if not referenced[candidate]:
                    return candidate
                referenced[candidate] = False
                order.move_to_end(candidate)
            return None
        for _ in range(2 * len(self._order) + 1):
            candidate = None
            for page in self._order:
                if not self._view.is_pinned(page):
                    candidate = page
                    break
            if candidate is None:
                return None
            if not self._referenced[candidate]:
                return candidate
            self._referenced[candidate] = False
            self._order.move_to_end(candidate)
        return None

    def eviction_order(self) -> Iterator[int]:
        deferred: list[int] = []
        for page in self._order:
            if self._view.is_pinned(page):
                continue
            if self._referenced[page]:
                deferred.append(page)
            else:
                yield page
        yield from deferred
