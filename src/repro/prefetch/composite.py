"""The ACE Reader's prefetch selection: sequential if a stream, else history.

Paper Algorithm 1, ``prefetch_pages(P, x)``: if ``P`` is part of a detected
sequential stream, read ``P`` and the next ``x`` pages concurrently
(sequential prefetcher); otherwise consult the history-based prefetcher.
This module composes :class:`~repro.prefetch.tap.TaPPrefetcher` and
:class:`~repro.prefetch.history.HistoryPrefetcher` accordingly.
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher
from repro.prefetch.history import HistoryPrefetcher
from repro.prefetch.tap import TaPPrefetcher

__all__ = ["CompositePrefetcher"]


class CompositePrefetcher(Prefetcher):
    """TaP for sequential streams, history table for everything else."""

    name = "composite"

    def __init__(
        self,
        sequential: TaPPrefetcher | None = None,
        history: HistoryPrefetcher | None = None,
        max_page: int | None = None,
    ) -> None:
        self.sequential = (
            sequential if sequential is not None else TaPPrefetcher(max_page=max_page)
        )
        self.history = history if history is not None else HistoryPrefetcher()
        self.sequential_suggestions = 0
        self.history_suggestions = 0
        # Pure delegation, and ``observe`` runs once per access: bind the
        # delegates themselves, unless a subclass defines the hook.
        if type(self).observe is CompositePrefetcher.observe:
            self.observe = self.history.observe
        if type(self).on_miss is CompositePrefetcher.on_miss:
            self.on_miss = self.sequential.on_miss

    def observe(self, page: int) -> None:
        self.history.observe(page)

    def on_miss(self, page: int) -> None:
        self.sequential.on_miss(page)

    def suggest(self, page: int, n: int) -> list[int]:
        sequential = self.sequential
        if sequential._active_stream_page == page:  # ``in_stream(page)``, inline
            suggestions = sequential.suggest(page, n)
            if suggestions:
                self.sequential_suggestions += len(suggestions)
                return suggestions
        history = self.history
        # The history's first link, in place: a row whose best weight does
        # not clear the threshold (the usual answer) opens no frame.
        row = history._table.get(page)
        if row is None or max(row[1]) < history.fetch_threshold:
            return []
        suggestions = history.suggest(page, n)
        self.history_suggestions += len(suggestions)
        return suggestions
