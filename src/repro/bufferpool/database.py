"""Database layout: relations mapped onto contiguous device page ranges.

PostgreSQL addresses pages with a structured ``buffer_tag`` (relation, fork,
block); the simulator flattens those to a single integer page space on the
device.  :class:`Database` owns the flattening: each relation gets a
contiguous page range, row numbers map to blocks through a rows-per-page
factor, and append-heavy relations get an :class:`AppendCursor` that models
heap extension (consecutive inserts fill a page before moving to the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.bufferpool.tag import BufferTag

__all__ = ["Relation", "Database", "AppendCursor"]


@dataclass(frozen=True)
class Relation:
    """A table or index laid out over a contiguous device page range."""

    rel_id: int
    name: str
    base_page: int
    num_pages: int
    rows_per_page: int = 1

    def __post_init__(self) -> None:
        if self.num_pages < 1:
            raise ValueError(f"relation {self.name!r} needs at least 1 page")
        if self.rows_per_page < 1:
            raise ValueError("rows_per_page must be positive")

    @property
    def end_page(self) -> int:
        """One past the last page of the relation."""
        return self.base_page + self.num_pages

    def page_of_block(self, block: int) -> int:
        """Flat device page of the relation's ``block``-th page."""
        if not 0 <= block < self.num_pages:
            raise IndexError(
                f"block {block} out of range for {self.name} "
                f"({self.num_pages} pages)"
            )
        return self.base_page + block

    def page_of_row(self, row: int) -> int:
        """Flat device page holding row number ``row``."""
        return self.page_of_block(row // self.rows_per_page)

    def tag_of_page(self, page: int) -> BufferTag:
        """Structured tag for a flat page inside this relation."""
        if not self.base_page <= page < self.end_page:
            raise IndexError(f"page {page} is not in relation {self.name}")
        return BufferTag(rel_id=self.rel_id, block=page - self.base_page)


class Database:
    """A set of relations packed into one flat page space."""

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self._relations: dict[str, Relation] = {}
        self._next_page = 0
        self._next_rel_id = 0

    def add_relation(
        self, name: str, num_rows: int, rows_per_page: int = 1,
        headroom_pages: int = 0,
    ) -> Relation:
        """Append a relation sized for ``num_rows`` plus insert headroom."""
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        if num_rows < 0:
            raise ValueError("row count cannot be negative")
        data_pages = max(1, math.ceil(num_rows / rows_per_page))
        relation = Relation(
            rel_id=self._next_rel_id,
            name=name,
            base_page=self._next_page,
            num_pages=data_pages + headroom_pages,
            rows_per_page=rows_per_page,
        )
        self._relations[name] = relation
        self._next_page = relation.end_page
        self._next_rel_id += 1
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            known = ", ".join(sorted(self._relations))
            raise KeyError(f"no relation {name!r}; known: {known}") from None

    @property
    def total_pages(self) -> int:
        return self._next_page

class AppendCursor:
    """Models heap extension for insert-heavy relations.

    Consecutive inserts land on the same page until ``rows_per_page`` rows
    accumulate, then advance to the next page.  When the relation's
    headroom is exhausted the cursor wraps to the beginning of the
    relation, modelling vacuum/space reuse in a long-running system.
    """

    def __init__(self, relation: Relation, start_block: int = 0) -> None:
        if not 0 <= start_block < relation.num_pages:
            raise ValueError(
                f"start block {start_block} outside relation "
                f"{relation.name} ({relation.num_pages} pages)"
            )
        self.relation = relation
        self._block = start_block
        self._rows_in_block = 0
        self.total_appends = 0

    @property
    def current_page(self) -> int:
        return self.relation.page_of_block(self._block)

    def append(self) -> int:
        """Record one inserted row; returns the page that absorbed it."""
        page = self.current_page
        self.total_appends += 1
        self._rows_in_block += 1
        if self._rows_in_block >= self.relation.rows_per_page:
            self._rows_in_block = 0
            self._block = (self._block + 1) % self.relation.num_pages
        return page
