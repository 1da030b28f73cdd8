"""Clean-First LRU (CFLRU) — flash-friendly replacement (paper Fig. 4b).

CFLRU keeps the LRU order but splits the list into a *working region*
(recently used) and a *clean-first region* of window size ``W`` at the
eviction end.  Victims are chosen clean-first inside the window: evicting a
clean page avoids a flash write.  Only when the window contains no clean
page does CFLRU fall back to evicting the least-recently-used (dirty) page.

The paper sets the window to one third of the bufferpool, following the
CFLRU authors' recommendation; :class:`CFLRUPolicy` takes the fraction as a
parameter so the window-size ablation bench can sweep it.

The window scan is the policy's hot path (one per miss once the pool is
full), so the window boundary is maintained *incrementally*: ``_window``
and ``_rest`` are the two segments of the LRU list as ordered maps, with
the head of ``_rest`` being exactly the page that slides into the window
when a window page leaves.  Together with ``_window_dirty`` (the count of
dirty window pages, updated from the ``note_dirty``/``note_clean`` hooks —
CFLRU is the one policy that listens to dirty transitions) victim
selection is O(1) for the all-clean and all-dirty windows and a scan to
the first clean page otherwise, filtered through the view's ``is_dirty``
(the manager's dirty set, in C).  The segments mirror ``_order``; the
single authoritative description of the clean-first order remains
``eviction_order()``, which ``select_victim`` consumes directly on the
reference path.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from itertools import filterfalse

from repro.policies.base import PageStateView
from repro.policies.lru import LRUPolicy

__all__ = ["CFLRUPolicy"]


class CFLRUPolicy(LRUPolicy):
    """CFLRU: LRU order with a clean-first eviction window."""

    name = "cflru"

    def __init__(self, capacity: int, window_fraction: float = 1.0 / 3.0) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(
                f"window fraction must be in (0, 1], got {window_fraction}"
            )
        self.capacity = capacity
        self.window_fraction = window_fraction
        #: Size of the clean-first region (fixed: capacity and fraction are
        #: construction-time constants).
        self.window_size = max(1, int(capacity * window_fraction))
        # The LRU list's two segments: ``_window`` holds the first
        # min(window_size, len) pages (eviction end), ``_rest`` the
        # remainder, each in LRU order.  Invariant: ``_rest`` is non-empty
        # only while ``_window`` is full.
        self._window: OrderedDict[int, None] = OrderedDict()
        self._rest: OrderedDict[int, None] = OrderedDict()
        #: Number of dirty window pages (meaningful only under a notifying
        #: view, whose transitions keep it; the fast paths read it only
        #: there).
        self._window_dirty = 0

    def bind(self, view: PageStateView) -> None:
        super().bind(view)
        self._window_dirty = 0

    # -- segment maintenance ----------------------------------------------

    def insert(self, page: int, cold: bool = False) -> None:
        super().insert(page, cold=cold)
        window = self._window
        if cold:
            # Front of the LRU list = front of the window; a demoted page
            # (the old W-th) becomes the head of the rest segment.
            window[page] = None
            window.move_to_end(page, last=False)
            if len(window) > self.window_size:
                demoted, _ = window.popitem(last=True)
                rest = self._rest
                rest[demoted] = None
                rest.move_to_end(demoted, last=False)
                if self._view.is_dirty(demoted):
                    self._window_dirty -= 1
        elif len(window) < self.window_size:
            window[page] = None  # rest is empty: MRU end is the window end
        else:
            self._rest[page] = None

    def remove(self, page: int) -> None:
        super().remove(page)
        window = self._window
        if page in window:
            del window[page]
            is_dirty = self._view.is_dirty
            if is_dirty(page):
                self._window_dirty -= 1
            rest = self._rest
            if rest:
                head = next(iter(rest))
                del rest[head]
                window[head] = None
                if is_dirty(head):
                    self._window_dirty += 1
        else:
            del self._rest[page]

    def on_access(self, page: int, is_write: bool = False) -> None:
        super().on_access(page, is_write)
        rest = self._rest
        if page in rest:
            rest.move_to_end(page)
            return
        window = self._window
        if not rest:
            # Everything fits inside the window; its end is the MRU end.
            window.move_to_end(page)
            return
        del window[page]
        is_dirty = self._view.is_dirty
        if is_dirty(page):
            self._window_dirty -= 1
        head = next(iter(rest))
        del rest[head]
        window[head] = None
        if is_dirty(head):
            self._window_dirty += 1
        rest[page] = None

    # -- notifications -----------------------------------------------------
    #
    # The view reports each transition exactly once, so the counter moves
    # by the page's segment alone.

    def note_dirty(self, page: int) -> None:
        if page in self._window:
            self._window_dirty += 1

    def note_clean(self, page: int) -> None:
        if page in self._window:
            self._window_dirty -= 1

    # -- decisions ---------------------------------------------------------

    def select_victim(self) -> int | None:
        if self._notified and not self._pinned_pages:
            window = self._window
            if not window:
                return None
            dirty_in_window = self._window_dirty
            if dirty_in_window == 0 or dirty_in_window >= len(window):
                # All clean: the LRU page is clean.  All dirty: CFLRU falls
                # back to the LRU page.  Either way: the window's front.
                return next(iter(window))
            return next(filterfalse(self._view.is_dirty, window))
        # The victim is by definition the head of the virtual order; the
        # clean-first window scan lives exactly once, in eviction_order().
        return next(iter(self.eviction_order()), None)

    def eviction_order(self) -> Iterator[int]:
        """Virtual order: window clean pages, then window dirty, then rest.

        This is a static approximation of CFLRU's behaviour (the window
        boundary shifts as evictions happen), which is exactly what ACE
        needs: the *near-term* eviction candidates in priority order.
        Single pass over the LRU list: the window is collected once and the
        same iterator continues into the tail, so ``next_dirty(n)``-style
        consumers pay O(window + consumed), not O(pool) per call.
        """
        is_pinned = self._view.is_pinned
        is_dirty = self._view.is_dirty
        window_size = self.window_size
        dirty_window: list[int] = []
        seen = 0
        iterator = iter(self._order)  # front = LRU end
        for page in iterator:
            if is_pinned(page):
                continue
            if is_dirty(page):
                dirty_window.append(page)
            else:
                yield page
            seen += 1
            if seen == window_size:
                break
        yield from dirty_window
        for page in iterator:
            if not is_pinned(page):
                yield page

    # -- maintained fast paths ---------------------------------------------
    #
    # next_dirty/next_clean are inherited from LRUPolicy: lifting clean
    # pages ahead of the window's dirty pages never reorders the dirty
    # pages among themselves (nor the clean ones), so CFLRU's dirty and
    # clean subsequences equal plain LRU's.

    def peek(self, n: int) -> list[int]:
        if not (self._notified and not self._pinned_pages):
            return self._reference_peek(n)
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        selected: list[int] = []
        if n == 0:
            return selected
        is_dirty = self._view.is_dirty
        deferred: list[int] = []
        for page in self._window:
            if is_dirty(page):
                if len(deferred) < n:
                    deferred.append(page)
            else:
                selected.append(page)
                if len(selected) == n:
                    return selected
        for page in deferred:
            selected.append(page)
            if len(selected) == n:
                return selected
        for page in self._rest:
            selected.append(page)
            if len(selected) == n:
                break
        return selected
