"""History-based prefetcher: per-page successor table (paper §IV-D, Fig. 7).

Row ``i`` of the table holds the pages most likely to be accessed right
after page ``i``, each with a weight.  Training follows the paper exactly:
given the previous and current references, the row indexed by the previous
page is updated —

* if the current page is already in the row's ``NextPages`` vector, its
  weight is incremented;
* otherwise, if some entry has weight zero, the current page replaces it
  with weight 1;
* otherwise the lowest-weight entry is decremented (the vector is bounded
  to the 3 most probable successors, so entries must defend their slot).

Prefetch suggestions chain through the table: the best successor of the
missed page, then the best successor of that page, and so on, stopping when
no candidate clears the ``fetch_threshold`` weight.

A row is allocated at its full width, ``candidates_per_page`` slots, and an
empty slot holds ``None`` at weight 0.  That is the paper's rule unchanged,
because weights fall only in a full row: in a row that is not full every
weight is at least 1, so the first zero-weight slot is the first empty one,
and filling it is exactly an append.  One branch then serves both cases.
"""

from __future__ import annotations

from repro.prefetch.base import Prefetcher

__all__ = ["HistoryPrefetcher"]


class HistoryPrefetcher(Prefetcher):
    """Successor-table prefetcher with bounded rows and weighted voting."""

    name = "history"

    def __init__(
        self,
        candidates_per_page: int = 3,
        fetch_threshold: int = 2,
        max_weight: int = 63,
    ) -> None:
        if candidates_per_page < 1:
            raise ValueError("need at least one candidate per page")
        if fetch_threshold < 1:
            raise ValueError("fetch threshold must be at least 1")
        if max_weight < fetch_threshold:
            raise ValueError("max weight must be at least the fetch threshold")
        self.candidates_per_page = candidates_per_page
        self.fetch_threshold = fetch_threshold
        self.max_weight = max_weight
        # page -> parallel lists (next_pages, weights), each of width
        # ``candidates_per_page``; an empty slot is ``None`` at weight 0.
        self._table: dict[int, tuple[list[int | None], list[int]]] = {}
        self._empty_pages = [None] * (candidates_per_page - 1)
        self._empty_weights = [0] * (candidates_per_page - 1)
        self._previous_page: int | None = None
        self.trained_pairs = 0

    def observe(self, page: int) -> None:
        """Train on the (previous, current) reference pair."""
        previous = self._previous_page
        self._previous_page = page
        if previous is None or previous == page:
            return
        self.trained_pairs += 1
        row = self._table.get(previous)
        if row is None:
            self._table[previous] = (
                [page, *self._empty_pages], [1, *self._empty_weights]
            )
            return
        next_pages, weights = row
        if page in next_pages:
            index = next_pages.index(page)
            if weights[index] < self.max_weight:
                weights[index] += 1
        else:
            # Take the weakest slot (first of equals: in a row that is not
            # full, its first empty slot) or, if it still counts, weaken it.
            lowest = min(weights)
            weakest = weights.index(lowest)
            if lowest:
                weights[weakest] = lowest - 1
            else:
                next_pages[weakest] = page
                weights[weakest] = 1

    def suggest(self, page: int, n: int) -> list[int]:
        """Chain up to ``n`` predicted pages starting from ``page``: each
        link the previous one's highest-weight successor (first of equals)
        that clears the threshold and is not in the chain already."""
        table = self._table
        floor = self.fetch_threshold - 1
        row = table.get(page)
        if row is None or n < 1:
            return []
        next_pages, weights = row
        top = max(weights)
        if top <= floor:
            return []  # the common answer, decided before allocating
        chain = [page]
        while True:
            # The row's best successor, found in C; only when the chain
            # already holds it does the link take the scan for the best
            # successor outside the chain (an empty slot never clears).
            best = next_pages[weights.index(top)]
            if best in chain:
                best = None
                best_weight = floor
                for candidate, weight in zip(next_pages, weights):
                    if weight > best_weight and candidate not in chain:
                        best = candidate
                        best_weight = weight
                if best is None:
                    break
            chain.append(best)
            if len(chain) > n:
                break
            row = table.get(best)
            if row is None:
                break
            next_pages, weights = row
            top = max(weights)
            if top <= floor:
                break  # nothing here clears the threshold
        return chain[1:]

    def row(self, page: int) -> tuple[list[int], list[int]] | None:
        """The (NextPages, Weights) row for ``page``, its filled slots only
        (tests/diagnostics)."""
        row = self._table.get(page)
        if row is None:
            return None
        next_pages, weights = row
        filled = next_pages.index(None) if None in next_pages else len(next_pages)
        return next_pages[:filled], weights[:filled]

    def table_size(self) -> int:
        """Number of populated rows (the paper notes ~0.6% of DB size)."""
        return len(self._table)
