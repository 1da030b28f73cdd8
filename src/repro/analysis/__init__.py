"""Analytical models: ACE's ideal speedup and Che's LRU approximation."""

from repro.analysis.che import expected_hit_ratio

__all__ = ["expected_hit_ratio"]
