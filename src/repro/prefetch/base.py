"""Prefetcher API used by ACE's Reader component.

A prefetcher sees the access stream (for training), is notified of buffer
misses (for stream detection), and on request *suggests* pages to read
concurrently alongside the missed page.  Suggesting nothing is always legal
— prefetching is an optional component of the design space (paper §III-D).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["Prefetcher", "NullPrefetcher"]


class Prefetcher(ABC):
    """Base class for read-ahead policies."""

    #: Registry/report name; subclasses override.
    name = "base"

    def observe(self, page: int) -> None:
        """Record that ``page`` was accessed (hit or miss); trains the model.

        Every access's page arrives, in access order, but no later than the
        next miss's :meth:`on_miss` — a bulk replay defers the calls to
        there — so an implementation must not read the bufferpool's state.
        """

    def on_miss(self, page: int) -> None:
        """Record that ``page`` missed in the bufferpool."""

    @abstractmethod
    def suggest(self, page: int, n: int) -> list[int]:
        """Up to ``n`` pages to prefetch together with missed page ``page``.

        The returned list never contains ``page`` itself and never contains
        duplicates.  An empty list means "no confident prediction" and the
        caller should skip prefetching for this miss.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NullPrefetcher(Prefetcher):
    """Never prefetches; turns ACE-with-prefetching into ACE-without."""

    name = "none"

    def suggest(self, page: int, n: int) -> list[int]:
        return []
