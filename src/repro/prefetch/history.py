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
        # page -> parallel lists (next_pages, weights), bounded rows.
        self._table: dict[int, tuple[list[int], list[int]]] = {}
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
            self._table[previous] = ([page], [1])
            return
        next_pages, weights = row
        if page in next_pages:
            index = next_pages.index(page)
            if weights[index] < self.max_weight:
                weights[index] += 1
        elif len(next_pages) < self.candidates_per_page:
            next_pages.append(page)
            weights.append(1)
        else:
            # Row is full: take the weakest slot (first of equals) or weaken it.
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
        if row is None or max(row[1]) <= floor or n < 1:
            return []  # the common answer, decided before allocating
        suggestions: list[int] = []
        exclude = {page}
        while True:
            best = None
            best_weight = floor
            for candidate, weight in zip(*row):
                if weight > best_weight and candidate not in exclude:
                    best = candidate
                    best_weight = weight
            if best is None:
                break
            suggestions.append(best)
            if len(suggestions) == n:
                break
            exclude.add(best)
            row = table.get(best)
            if row is None or max(row[1]) <= floor:
                break  # nothing here clears the threshold
        return suggestions

    def row(self, page: int) -> tuple[list[int], list[int]] | None:
        """The (NextPages, Weights) row for ``page`` (tests/diagnostics)."""
        row = self._table.get(page)
        if row is None:
            return None
        return list(row[0]), list(row[1])

    def table_size(self) -> int:
        """Number of populated rows (the paper notes ~0.6% of DB size)."""
        return len(self._table)
