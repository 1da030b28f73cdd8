"""Page-request traces: the interface between workloads and the bufferpool.

Every workload in the paper — pgbench-style synthetic mixes and TPC-C —
ultimately presents the bufferpool with a stream of (page, read/write)
requests.  :class:`Trace` stores that stream compactly (parallel lists) and
offers both bulk access for the executor's hot loop and a request-object
view for tests and examples.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

__all__ = ["PageRequest", "Trace"]


@dataclass(frozen=True)
class PageRequest:
    """One logical page access."""

    page: int
    is_write: bool

    def __str__(self) -> str:
        kind = "W" if self.is_write else "R"
        return f"{kind}({self.page})"


class Trace:
    """An ordered stream of page requests.

    ``client_ids`` is an optional parallel list attributing each request to
    the client session that issued it (see
    :func:`repro.engine.multiclient.interleave_traces`).  Single-client
    traces leave it ``None``; the serving layer then attributes every
    request to client 0.
    """

    def __init__(
        self,
        pages: list[int],
        writes: list[bool],
        name: str = "trace",
        client_ids: list[int] | None = None,
    ) -> None:
        if len(pages) != len(writes):
            raise ValueError(
                f"pages ({len(pages)}) and writes ({len(writes)}) differ in length"
            )
        if client_ids is not None and len(client_ids) != len(pages):
            raise ValueError(
                f"client_ids ({len(client_ids)}) and pages ({len(pages)}) "
                "differ in length"
            )
        self.pages = pages
        self.writes = writes
        self.name = name
        self.client_ids = client_ids

    @classmethod
    def from_arrays(
        cls, pages: np.ndarray, writes: np.ndarray, name: str = "trace"
    ) -> "Trace":
        """Build a trace from numpy arrays (generator fast path)."""
        return cls(pages.astype(np.int64).tolist(), writes.astype(bool).tolist(), name)

    @classmethod
    def from_requests(
        cls, requests: Iterable[PageRequest], name: str = "trace"
    ) -> "Trace":
        pages: list[int] = []
        writes: list[bool] = []
        for request in requests:
            pages.append(request.page)
            writes.append(request.is_write)
        return cls(pages, writes, name)

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[PageRequest]:
        for page, is_write in zip(self.pages, self.writes):
            yield PageRequest(page, is_write)

    def __getitem__(self, index: int) -> PageRequest:
        return PageRequest(self.pages[index], self.writes[index])

    def slice(self, start: int, stop: int) -> "Trace":
        client_ids = (
            self.client_ids[start:stop] if self.client_ids is not None else None
        )
        return Trace(
            self.pages[start:stop],
            self.writes[start:stop],
            self.name,
            client_ids=client_ids,
        )

    # ------------------------------------------------------------ metrics

    @property
    def num_writes(self) -> int:
        return sum(self.writes)

    @property
    def num_reads(self) -> int:
        return len(self) - self.num_writes

    @property
    def read_fraction(self) -> float:
        if not self.pages:
            return 0.0
        return self.num_reads / len(self)

    def unique_pages(self) -> int:
        return len(set(self.pages))

    def footprint(self) -> tuple[int, int]:
        """(min page, max page) touched by the trace."""
        if not self.pages:
            raise ValueError("empty trace has no footprint")
        return min(self.pages), max(self.pages)

    def locality(self, hot_fraction: float = 0.1, total_pages: int | None = None) -> float:
        """Fraction of accesses landing on the hottest ``hot_fraction`` pages.

        ``hot_fraction`` is taken relative to ``total_pages`` (the database
        page space) when given, else relative to the pages the trace
        touched.  For a 90/10 workload over its page space this returns
        ~0.9 with ``hot_fraction=0.1`` — the empirical check the Table II
        bench performs.
        """
        if not 0.0 < hot_fraction <= 1.0:
            raise ValueError(f"hot fraction must be in (0, 1]: {hot_fraction}")
        if not self.pages:
            return 0.0
        counts: dict[int, int] = {}
        for page in self.pages:
            counts[page] = counts.get(page, 0) + 1
        page_space = total_pages if total_pages is not None else len(counts)
        hot_count = max(1, int(page_space * hot_fraction))
        hottest = sorted(counts.values(), reverse=True)[:hot_count]
        return sum(hottest) / len(self.pages)

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, ops={len(self)}, "
            f"read_fraction={self.read_fraction:.2f})"
        )
