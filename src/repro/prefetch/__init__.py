"""Read-ahead substrate: NPL, TaP, history table, and the ACE composite."""

from repro.prefetch.base import NullPrefetcher, Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.prefetch.history import HistoryPrefetcher
from repro.prefetch.sequential import NPLPrefetcher
from repro.prefetch.tap import TaPPrefetcher

__all__ = [
    "Prefetcher",
    "NullPrefetcher",
    "NPLPrefetcher",
    "TaPPrefetcher",
    "HistoryPrefetcher",
    "CompositePrefetcher",
]
