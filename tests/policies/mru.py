"""MRU: the tests' one replacement policy from outside the paper's four.

ACE claims to wrap *any* policy.  Clock Sweep, LRU, CFLRU and LRU-WSR all
evict from the cold end of a recency order; MRU evicts the page touched
last, so a battery over ``(*PAPER_POLICIES, MRU)`` holds every seam to an
order that is not recency.  It keeps no maintained structure: ``peek`` /
``next_dirty`` / ``next_clean`` and ``hooks()`` are the base class's.
Importing this module registers it under :data:`MRU`.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

from repro.policies.base import ReplacementPolicy
from repro.policies.registry import register_policy

#: The registry name the batteries parametrise over.
MRU = "mru"


class MRUPolicy(ReplacementPolicy):
    """Most Recently Used: the next victim is the page touched last."""

    name = MRU

    def __init__(self) -> None:
        super().__init__()
        # Last item = most recently used = next victim.
        self._order: OrderedDict[int, None] = OrderedDict()

    def insert(self, page: int, cold: bool = False) -> None:
        # Every insert lands at the eviction end, where a cold page belongs.
        if page in self._order:
            raise ValueError(f"page {page} already tracked")
        self._order[page] = None

    def remove(self, page: int) -> None:
        del self._order[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        self._order.move_to_end(page)

    def __contains__(self, page: int) -> bool:
        return page in self._order

    def __len__(self) -> int:
        return len(self._order)

    def pages(self) -> list[int]:
        return list(self._order)

    def select_victim(self) -> int | None:
        return next(self.eviction_order(), None)

    def eviction_order(self) -> Iterator[int]:
        is_pinned = self._view.is_pinned
        return (page for page in reversed(self._order) if not is_pinned(page))


register_policy(MRU, lambda capacity: MRUPolicy(), display="MRU")
