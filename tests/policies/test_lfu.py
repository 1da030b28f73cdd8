"""Tests for LFU replacement."""

import pytest

from tests.policies.classic.lfu import LFUPolicy


def make_lfu(view, pages=()):
    policy = LFUPolicy()
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestFrequency:
    def test_fresh_page_starts_at_one(self, view):
        policy = make_lfu(view, [1])
        assert policy.frequency(1) == 1

    def test_cold_insert_starts_at_zero(self, view):
        policy = make_lfu(view)
        policy.insert(1, cold=True)
        assert policy.frequency(1) == 0

    def test_access_increments(self, view):
        policy = make_lfu(view, [1])
        policy.on_access(1)
        policy.on_access(1)
        assert policy.frequency(1) == 3

    def test_remove_clears_state(self, view):
        policy = make_lfu(view, [1])
        policy.remove(1)
        with pytest.raises(KeyError):
            policy.frequency(1)


class TestVictimSelection:
    def test_least_frequent_evicted(self, view):
        policy = make_lfu(view, [1, 2, 3])
        policy.on_access(1)
        policy.on_access(3)
        assert policy.select_victim() == 2

    def test_recency_breaks_ties(self, view):
        policy = make_lfu(view, [1, 2, 3])
        policy.on_access(1)
        policy.on_access(2)
        policy.on_access(3)
        # All at frequency 2; LRU tie-break picks 1.
        assert policy.select_victim() == 1

    def test_cold_prefetched_page_goes_first(self, view):
        policy = make_lfu(view, [1, 2])
        policy.insert(9, cold=True)
        assert policy.select_victim() == 9

    def test_pinned_skipped(self, view):
        policy = make_lfu(view, [1, 2])
        view.pinned.add(1)
        assert policy.select_victim() == 2

    def test_empty_returns_none(self, view):
        assert make_lfu(view).select_victim() is None


class TestEvictionOrder:
    def test_order_by_frequency_then_recency(self, view):
        policy = make_lfu(view, [1, 2, 3])
        policy.on_access(3)
        policy.on_access(3)
        policy.on_access(2)
        assert list(policy.eviction_order()) == [1, 2, 3]

    def test_order_head_matches_victim(self, view):
        policy = make_lfu(view, [1, 2, 3, 4])
        policy.on_access(2)
        policy.on_access(4)
        order = list(policy.eviction_order())
        assert policy.select_victim() == order[0]

    def test_registry_integration(self, view):
        from repro.policies.registry import make_policy

        policy = make_policy("lfu", 16)
        assert isinstance(policy, LFUPolicy)
