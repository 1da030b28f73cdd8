"""Tests for CFLRU (clean-first LRU)."""

import pytest

from repro.policies.cflru import CFLRUPolicy


def make_cflru(view, pages=(), capacity=6, window_fraction=0.5):
    policy = CFLRUPolicy(capacity=capacity, window_fraction=window_fraction)
    view.bind(policy)
    for page in pages:
        policy.insert(page)
    return policy


class TestConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CFLRUPolicy(capacity=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            CFLRUPolicy(capacity=10, window_fraction=0.0)
        with pytest.raises(ValueError):
            CFLRUPolicy(capacity=10, window_fraction=1.5)

    def test_paper_default_window_is_one_third(self):
        policy = CFLRUPolicy(capacity=9)
        assert policy.window_size == 3

    def test_window_at_least_one(self):
        policy = CFLRUPolicy(capacity=2, window_fraction=0.1)
        assert policy.window_size == 1


class TestCleanFirstEviction:
    def test_clean_page_preferred_inside_window(self, view):
        # LRU order: 1 2 3 4 5 6; window (fraction .5 of capacity 6) = {1,2,3}
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 2)
        assert policy.select_victim() == 3

    def test_falls_back_to_lru_dirty_when_window_all_dirty(self, view):
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 2, 3)
        assert policy.select_victim() == 1

    def test_behaves_like_lru_when_all_clean(self, view):
        policy = make_cflru(view, [1, 2, 3, 4])
        assert policy.select_victim() == 1

    def test_clean_page_outside_window_not_preferred(self, view):
        """A clean page beyond the window must not jump the queue."""
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 2, 3)
        # 4 is clean but outside the window; CFLRU evicts dirty LRU page 1.
        assert policy.select_victim() == 1

    def test_pinned_pages_skipped(self, view):
        policy = make_cflru(view, [1, 2, 3, 4])
        view.pinned.add(1)
        assert policy.select_victim() == 2

    def test_empty_returns_none(self, view):
        assert make_cflru(view).select_victim() is None

    def test_access_moves_page_out_of_window(self, view):
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        policy.on_access(1)  # 1 becomes MRU; window now {2, 3, 4}
        view.mark_dirty(2)
        assert policy.select_victim() == 3


class TestEvictionOrder:
    def test_order_clean_window_then_dirty_window_then_rest(self, view):
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 3)
        order = list(policy.eviction_order())
        assert order == [2, 1, 3, 4, 5, 6]

    def test_order_contains_all_unpinned(self, view):
        policy = make_cflru(view, [1, 2, 3, 4])
        view.pinned.add(2)
        assert sorted(policy.eviction_order()) == [1, 3, 4]

    def test_order_head_matches_victim(self, view):
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 2)
        order = list(policy.eviction_order())
        assert policy.select_victim() == order[0]

    def test_next_dirty_follows_virtual_order(self, view):
        policy = make_cflru(view, [1, 2, 3, 4, 5, 6])
        view.mark_dirty(1, 3, 5)
        # virtual order: clean window [2], dirty window [1, 3], rest [4,5,6]
        assert policy.next_dirty(3) == [1, 3, 5]
