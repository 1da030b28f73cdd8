"""Simple sequential lookahead: NPL (paper §III-D).

N-Page Lookahead (NPL) prefetches the next ``depth`` pages after the
requested page (One-Page Lookahead is NPL with ``depth=1``).  It is one of
the "very simple prefetching techniques" commercial systems use, included
both as a baseline and to demonstrate that ACE's Reader accepts any
prefetching technique.
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher

__all__ = ["NPLPrefetcher"]


class NPLPrefetcher(Prefetcher):
    """N-Page Lookahead: always suggest the next ``depth`` page numbers."""

    name = "npl"

    def __init__(self, depth: int = 4, max_page: int | None = None) -> None:
        if depth < 1:
            raise ValueError(f"lookahead depth must be positive: {depth}")
        self.depth = depth
        self.max_page = max_page

    def suggest(self, page: int, n: int) -> list[int]:
        limit = min(self.depth, n)
        suggestions = [page + offset for offset in range(1, limit + 1)]
        if self.max_page is not None:
            suggestions = [p for p in suggestions if p < self.max_page]
        return suggestions

