"""Tests for 2Q and ARC."""

import pytest

from tests.policies.classic.arc import ARCPolicy
from tests.policies.classic.twoq import TwoQPolicy


def make_twoq(view, capacity=8, pages=()):
    policy = TwoQPolicy(capacity=capacity)
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


def make_arc(view, capacity=8, pages=()):
    policy = ARCPolicy(capacity=capacity)
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestTwoQ:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            TwoQPolicy(capacity=1)
        with pytest.raises(ValueError):
            TwoQPolicy(capacity=8, kin_fraction=0.0)
        with pytest.raises(ValueError):
            TwoQPolicy(capacity=8, kout_fraction=0.0)

    def test_first_touch_enters_a1in(self, view):
        policy = make_twoq(view, pages=[1])
        assert 1 in policy
        assert policy.select_victim() == 1  # A1in is the only queue

    def test_evicted_a1in_page_becomes_ghost(self, view):
        policy = make_twoq(view, capacity=4, pages=[1, 2, 3])
        victim = policy.select_victim()
        policy.remove(victim)
        assert victim in policy.ghost_pages()

    def test_ghost_hit_promotes_to_am(self, view):
        policy = make_twoq(view, capacity=4, pages=[1, 2, 3])
        policy.remove(1)  # 1 becomes a ghost
        policy.insert(1)  # re-fault: straight to Am
        # A1in overflow drains before Am, so 1 should not be the victim.
        order = list(policy.eviction_order())
        assert order[-1] != 1 or order[0] in (2, 3)
        assert 1 in policy

    def test_ghost_queue_bounded(self, view):
        policy = make_twoq(view, capacity=4)
        for page in range(20):
            policy.insert(page)
            policy.remove(page)
        assert len(policy.ghost_pages()) <= policy.kout

    def test_am_hits_refresh_lru(self, view):
        policy = make_twoq(view, capacity=4)
        for page in (1, 2):
            policy.insert(page)
            policy.remove(page)
            policy.insert(page)  # both now in Am
        policy.on_access(1)
        am_order = [p for p in policy.eviction_order()]
        assert am_order.index(2) < am_order.index(1)

    def test_remove_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_twoq(view).remove(7)

    def test_eviction_order_covers_all_unpinned(self, view):
        policy = make_twoq(view, capacity=6, pages=[1, 2, 3, 4])
        view.pinned.add(2)
        assert sorted(policy.eviction_order()) == [1, 3, 4]


class TestARC:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            ARCPolicy(capacity=1)

    def test_first_touch_enters_t1(self, view):
        policy = make_arc(view, pages=[1])
        assert 1 in policy
        assert len(policy) == 1

    def test_hit_promotes_t1_to_t2(self, view):
        policy = make_arc(view, pages=[1, 2])
        policy.on_access(1)
        # 2 is still in T1 (seen once); the replacement rule prefers T1.
        assert policy.select_victim() == 2

    def test_b1_ghost_hit_grows_p(self, view):
        policy = make_arc(view, capacity=4, pages=[1, 2])
        policy.remove(1)  # T1 eviction -> B1 ghost
        p_before = policy.p
        policy.insert(1)  # B1 hit: p grows, page enters T2
        assert policy.p > p_before

    def test_b2_ghost_hit_shrinks_p(self, view):
        policy = make_arc(view, capacity=4, pages=[1, 2])
        policy.on_access(1)          # 1 -> T2
        policy.remove(1)             # T2 eviction -> B2 ghost
        policy.insert(3)
        policy.remove(3)             # B1 gets a ghost too
        policy.insert(3)             # B1 hit: p grows above 0
        p_before = policy.p
        policy.insert(1)             # B2 hit: p shrinks
        assert policy.p < p_before

    def test_ghosts_bounded(self, view):
        policy = make_arc(view, capacity=4)
        for page in range(50):
            policy.insert(page)
            policy.remove(page)
        b1, b2 = policy.ghost_sizes()
        assert b1 + b2 <= 2 * policy.capacity

    def test_eviction_order_covers_resident_pages(self, view):
        policy = make_arc(view, capacity=6, pages=[1, 2, 3])
        policy.on_access(2)
        assert sorted(policy.eviction_order()) == [1, 2, 3]

    def test_access_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_arc(view).on_access(4)

    def test_remove_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_arc(view).remove(4)

    def test_scan_resistance(self, view):
        """A one-pass scan must not flush the frequently-hit working set."""
        policy = make_arc(view, capacity=8)
        # Build a hot working set in T2.
        for page in range(4):
            policy.insert(page)
            policy.on_access(page)
        # Scan 100 cold pages through the cache.
        for page in range(100, 200):
            while len(policy) >= 8:
                victim = policy.select_victim()
                policy.remove(victim)
            policy.insert(page)
        hot_survivors = [p for p in range(4) if p in policy]
        assert len(hot_survivors) >= 2
