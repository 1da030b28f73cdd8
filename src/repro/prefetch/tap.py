"""TaP: table-based sequential-stream detection and prefetching (paper §IV-D).

TaP (Li et al., FAST 2008) detects sequential access patterns with a small
table of *expected next* page addresses:

* on a page miss ``P`` that is **not** in the table, the address ``P + 1``
  is inserted — if the miss starts a sequential stream, the very next miss
  of that stream will find its address in the table;
* on a miss ``P`` that **is** in the table, the stream it belongs to grew by
  one: the entry is replaced by ``P + 1`` and the stream length incremented.

ACE triggers actual prefetching only once a stream has produced at least
``trigger_length`` (default 4) sequential requests; then the next
``n`` pages are read concurrently with the page that missed.  Old entries
that never became streams are evicted FIFO.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.prefetch.base import Prefetcher

__all__ = ["TaPPrefetcher"]


class TaPPrefetcher(Prefetcher):
    """Sequential prefetcher with TaP-style stream detection."""

    name = "tap"

    def __init__(
        self,
        table_size: int = 256,
        trigger_length: int = 4,
        max_page: int | None = None,
    ) -> None:
        if table_size < 1:
            raise ValueError("table size must be positive")
        if trigger_length < 2:
            raise ValueError("a stream needs at least 2 sequential requests")
        self.table_size = table_size
        self.trigger_length = trigger_length
        self.max_page = max_page
        # expected next page -> length of the stream ending there.
        self._table: OrderedDict[int, int] = OrderedDict()
        #: page whose miss most recently extended a confirmed stream
        self._active_stream_page: int | None = None
        self._active_stream_length = 0
        self.streams_detected = 0

    def on_miss(self, page: int) -> None:
        """Feed a buffer miss to the sequential detection module."""
        self._active_stream_page = None
        table = self._table
        # A miss the table expected extends that stream by one; any other
        # may start one (length 1): either way, watch for ``page + 1``,
        # keeping the longer stream interpretation (re-queued at the tail).
        length = table.pop(page, 0) + 1
        expected = page + 1
        known = table.pop(expected, 0)
        table[expected] = known if known > length else length
        if len(table) > self.table_size:
            # FIFO eviction of stale would-be streams (one insertion
            # overflows the table by one entry at most).
            table.popitem(last=False)
        if length >= self.trigger_length:
            if length == self.trigger_length:
                self.streams_detected += 1
            self._active_stream_page = page
            self._active_stream_length = length

    def in_stream(self, page: int) -> bool:
        """Whether ``page``'s most recent miss extended a confirmed stream.

        ACE's Reader consults this to route between the sequential and the
        history-based prefetcher (paper Algorithm 1, ``prefetch_pages``).
        """
        return self._active_stream_page == page

    def suggest(self, page: int, n: int) -> list[int]:
        """The next ``n`` sequential pages, if ``page`` is in a stream.

        Issuing a prefetch also *sustains* the stream: the page right after
        the prefetched run is inserted into the table (as ``on_miss``
        inserts) so that the miss ending the run re-enters the confirmed
        stream immediately instead of re-paying the detection warm-up.
        """
        if self._active_stream_page != page:
            return []
        stop = page + n + 1
        if self.max_page is not None and stop > self.max_page:
            stop = self.max_page
        suggestions = list(range(page + 1, stop))
        if suggestions:
            length = self._active_stream_length + len(suggestions)
            table = self._table
            known = table.pop(stop, 0)
            table[stop] = known if known > length else length
            if len(table) > self.table_size:
                table.popitem(last=False)
        return suggestions

    def table_contents(self) -> dict[int, int]:
        """Snapshot of the TaP table (tests/diagnostics)."""
        return dict(self._table)
