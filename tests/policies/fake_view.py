"""A controllable PageStateView for standalone policy testing."""

from __future__ import annotations


class FakeView:
    """Dirty/pinned state driven directly by the test.

    ``pinned`` is live, as the manager's is: a policy bound to the view
    sees a page pinned or unpinned the moment the test edits the set.  A
    test that dirties pages behind a policy that counts them (CFLRU's
    window) goes through :meth:`mark_dirty` / :meth:`mark_clean`, which
    forward each transition to the policy's published dirty hooks, once,
    as the manager's ``_transition`` does.
    """

    def __init__(self) -> None:
        self.dirty: set[int] = set()
        self.pinned: set[int] = set()
        self._dirtied = self._cleaned = None

    def bind(self, policy) -> None:
        """Bind ``policy`` to this view and take its dirty hooks."""
        policy.bind(self)
        _, _, _, self._dirtied, self._cleaned = policy.hooks()

    def is_dirty(self, page: int) -> bool:
        return page in self.dirty

    def is_pinned(self, page: int) -> bool:
        return page in self.pinned

    def mark_dirty(self, *pages: int) -> None:
        for page in pages:
            if page not in self.dirty:
                self.dirty.add(page)
                if self._dirtied is not None:
                    self._dirtied(page)

    def mark_clean(self, *pages: int) -> None:
        for page in pages:
            if page in self.dirty:
                self.dirty.discard(page)
                if self._cleaned is not None:
                    self._cleaned(page)
