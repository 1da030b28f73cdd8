"""Tests for FIFO and Second Chance."""

import pytest

from tests.policies.classic.fifo import FIFOPolicy, SecondChancePolicy


def make(policy_cls, view, pages=()):
    policy = policy_cls()
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestFIFO:
    def test_victim_is_oldest(self, view):
        policy = make(FIFOPolicy, view, [1, 2, 3])
        assert policy.select_victim() == 1

    def test_access_does_not_change_order(self, view):
        policy = make(FIFOPolicy, view, [1, 2, 3])
        policy.on_access(1)
        policy.on_access(1)
        assert policy.select_victim() == 1

    def test_cold_insert_jumps_queue(self, view):
        policy = make(FIFOPolicy, view, [1, 2])
        policy.insert(9, cold=True)
        assert policy.select_victim() == 9

    def test_eviction_order_is_insertion_order(self, view):
        policy = make(FIFOPolicy, view, [3, 1, 2])
        assert list(policy.eviction_order()) == [3, 1, 2]

    def test_double_insert_rejected(self, view):
        policy = make(FIFOPolicy, view, [1])
        with pytest.raises(ValueError):
            policy.insert(1)

    def test_access_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make(FIFOPolicy, view).on_access(1)

    def test_pinned_skipped(self, view):
        policy = make(FIFOPolicy, view, [1, 2])
        view.pinned.add(1)
        assert policy.select_victim() == 2


class TestSecondChance:
    def test_unreferenced_page_evicted(self, view):
        policy = make(SecondChancePolicy, view, [1, 2])
        assert policy.select_victim() == 1

    def test_referenced_page_gets_second_chance(self, view):
        policy = make(SecondChancePolicy, view, [1, 2])
        policy.on_access(1)
        assert policy.select_victim() == 2

    def test_second_chance_clears_bit(self, view):
        policy = make(SecondChancePolicy, view, [1, 2])
        policy.on_access(1)
        policy.on_access(2)
        victim = policy.select_victim()
        assert victim == 1  # both referenced; one lap clears both bits

    def test_eviction_order_defers_referenced(self, view):
        policy = make(SecondChancePolicy, view, [1, 2, 3])
        policy.on_access(1)
        assert list(policy.eviction_order()) == [2, 3, 1]

    def test_order_head_matches_victim(self, view):
        policy = make(SecondChancePolicy, view, [1, 2, 3])
        policy.on_access(1)
        order = list(policy.eviction_order())
        assert policy.select_victim() == order[0]

    def test_remove_cleans_reference_state(self, view):
        policy = make(SecondChancePolicy, view, [1])
        policy.on_access(1)
        policy.remove(1)
        assert 1 not in policy
