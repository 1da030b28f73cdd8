"""Replacement-policy API: the "virtual order" at the heart of ACE.

The paper's key refactoring (Section III) is that a page replacement
algorithm defines a **virtual order** of pages — the order in which pages
would eventually be evicted — and that this single order should drive two
*separate* decisions:

* the **write-back policy** consumes the virtual order restricted to dirty
  pages (the next ``n_w`` dirty pages the policy would evict);
* the **eviction policy** consumes the virtual order itself (the next
  ``n_e`` pages to drop, which should be clean by then).

Accordingly, every policy here exposes two views of the same decision:

``select_victim()``
    The classical, *stateful* call: pick one page to replace.  It may
    mutate policy state (Clock Sweep decrements usage counts, LRU-WSR gives
    dirty hot pages a second chance).
``eviction_order()``
    A *side-effect-free* iterator over pages in the order the policy would
    evict them from its current state.  ACE's Writer and Evictor peek at
    this order without disturbing the policy, which is what lets ACE wrap
    any replacement algorithm unchanged.

Policies learn page dirty/pinned state through a :class:`PageStateView`
supplied by the buffer manager via :meth:`ReplacementPolicy.bind`; the
manager's state is the only record, read the way PostgreSQL's freelist
code reads a buffer's state bits.  The view's ``pinned`` set is live, so
a policy takes it once at ``bind`` and serves the bulk fast paths —
:meth:`ReplacementPolicy.peek`, :meth:`ReplacementPolicy.next_dirty`,
:meth:`ReplacementPolicy.next_clean` — from its own order while nothing is
pinned, in O(answer) instead of re-deriving the order per call.  With a
page pinned they fall back to the base class's derivation over
``eviction_order()``, the pure reference that the sanitizer and the
differential tests hold every fast path to.  A policy that keeps a count
over dirty pages (CFLRU's window) listens to the view's dirty transitions
through ``note_dirty`` / ``note_clean``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Set
from itertools import filterfalse, islice
from typing import Protocol

__all__ = ["PageStateView", "ReplacementPolicy", "NullPageStateView", "inherited"]


class PageStateView(Protocol):
    """What a policy may ask the buffer manager about a buffered page.

    ``pinned`` is the live set of pinned pages behind ``is_pinned``: a
    policy keeps the reference it takes at ``bind`` and gates its fast
    paths on the set being empty.  A view calls the policy's ``note_dirty``
    / ``note_clean`` on every dirty transition, exactly once each, when
    :meth:`ReplacementPolicy.hooks` publishes them (the manager does so in
    ``_transition``).  The buffer manager answers both questions in C (its
    mirror sets' ``__contains__``), so a policy may filter its order
    through them without a Python frame per page.
    """

    pinned: Set[int]

    def is_dirty(self, page: int) -> bool:
        """Whether the buffered page has unflushed modifications."""
        ...

    def is_pinned(self, page: int) -> bool:
        """Whether the page is pinned and therefore not evictable."""
        ...


class NullPageStateView:
    """A view for standalone policy use: nothing dirty, nothing pinned."""

    pinned: Set[int] = frozenset()

    def is_dirty(self, page: int) -> bool:
        return False

    def is_pinned(self, page: int) -> bool:
        return False


def inherited(method, function) -> bool:
    """Whether ``method``, a hook as a policy instance resolves it, is
    ``function`` itself: no subclass override, no instance attribute."""
    return getattr(method, "__func__", None) is function


class ReplacementPolicy(ABC):
    """Base class for page replacement algorithms.

    Subclasses maintain only page *membership and ordering*; dirty and pin
    state is read through the bound :class:`PageStateView`.

    The lifecycle calls a buffer manager makes:

    * :meth:`insert` when a page enters the pool (``cold=True`` places it at
      the eviction end — used by ACE for prefetched pages so that wrong
      predictions are cheap to drop);
    * :meth:`on_access` on every buffer hit;
    * :meth:`select_victim` when a frame must be freed;
    * :meth:`remove` when the page actually leaves the pool.
    """

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self) -> None:
        self._view: PageStateView = NullPageStateView()
        self._pinned: Set[int] = self._view.pinned

    def bind(self, view: PageStateView) -> None:
        """Attach the buffer manager's page-state view."""
        self._view = view
        #: The view's live pinned set: fast paths that assume "nothing
        #: pinned" gate on it being empty and otherwise fall back to the
        #: derivation over ``eviction_order()``.
        self._pinned = view.pinned

    # -- dirty notifications -----------------------------------------------
    #
    # Called by the view on every dirty transition of the named page, when
    # :meth:`hooks` publishes them.  A policy that counts dirty pages
    # (CFLRU's window) overrides the pair.

    def note_dirty(self, page: int) -> None:
        """``page`` transitioned clean -> dirty."""

    def note_clean(self, page: int) -> None:
        """``page`` transitioned dirty -> clean (write-back landed)."""

    # -- membership -------------------------------------------------------

    @abstractmethod
    def insert(self, page: int, cold: bool = False) -> None:
        """Track a page that entered the bufferpool.

        ``cold=True`` requests placement at the eviction end of the virtual
        order (least-recently-used position or equivalent).
        """

    @abstractmethod
    def remove(self, page: int) -> None:
        """Stop tracking a page that left the bufferpool."""

    @abstractmethod
    def on_access(self, page: int, is_write: bool = False) -> None:
        """Record a buffer hit on ``page``."""

    @abstractmethod
    def __contains__(self, page: int) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def pages(self) -> list[int]:
        """All tracked pages (order unspecified)."""

    def hooks(self) -> tuple:
        """The callables the buffer manager and the executor's inlined loop
        call per request: ``(hit, insert, remove, dirtied, cleaned)``.

        ``hit(page)`` is a read hit and ``hit(page, True)`` a write hit,
        ``insert(page, None)`` a warm install and ``remove(page)`` an
        eviction, each only on a page whose membership the buffer table
        already vouches for.  ``dirtied`` / ``cleaned`` are the policy's
        ``note_dirty`` / ``note_clean``, or ``None`` when it does not
        listen (the hook is the base no-op), so a transition then costs it
        nothing.  Each hook is resolved on the instance: an override, in a
        subclass or as an instance attribute, is the one published.  The
        policy's own methods here; a policy whose hook is one container
        operation may hand over the container's method instead (see
        :meth:`LRUPolicy.hooks`).
        """
        note_dirty, note_clean = self.note_dirty, self.note_clean
        return (
            self.on_access,
            self.insert,
            self.remove,
            None if inherited(note_dirty, ReplacementPolicy.note_dirty) else note_dirty,
            None if inherited(note_clean, ReplacementPolicy.note_clean) else note_clean,
        )

    # -- decisions ---------------------------------------------------------

    @abstractmethod
    def select_victim(self) -> int | None:
        """Pick one page to replace (stateful; skips pinned pages).

        Returns ``None`` only if every tracked page is pinned.  The caller
        is responsible for write-back (if dirty) and for :meth:`remove`.
        """

    @abstractmethod
    def eviction_order(self) -> Iterator[int]:
        """Yield unpinned pages in eviction order, without side effects.

        This is the policy's *virtual order* (paper Section III): position
        ``i`` is the page that would be the victim after ``i`` evictions,
        assuming no intervening accesses.
        """

    # -- derived helpers used by ACE ---------------------------------------
    #
    # ``peek`` / ``next_dirty`` / ``next_clean`` are the bulk reads the ACE
    # Writer, Evictor, and the manager's degraded-eviction fallback
    # consume.  Here they are the definitional derivation over
    # ``eviction_order()``; a policy with maintained structures overrides
    # them and *must* return exactly this result (the sanitizer and the
    # differential suite check it), calling ``super()`` whenever a pinned
    # page invalidates its shortcut.

    def peek(self, n: int) -> list[int]:
        """The next ``n`` pages in the virtual order (may be fewer)."""
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        return list(islice(self.eviction_order(), n))

    def next_dirty(self, n: int) -> list[int]:
        """The next ``n`` dirty pages in the virtual order (may be fewer).

        This is exactly the paper's ``populate_pages_to_writeback()``: the
        candidate set for ACE's concurrent write-back.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        return list(islice(filter(self._view.is_dirty, self.eviction_order()), n))

    def next_clean(self, n: int) -> list[int]:
        """The next ``n`` clean pages in the virtual order (may be fewer).

        The degraded-eviction fallback: when a write-back fails, the
        manager evicts the first clean page in the virtual order instead.
        """
        if n < 0:
            raise ValueError(f"n must be non-negative: {n}")
        return list(
            islice(filterfalse(self._view.is_dirty, self.eviction_order()), n)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(pages={len(self)})"
