"""Tests for LRU replacement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.lru import LRUPolicy


def make_lru(view, pages=()):
    policy = LRUPolicy()
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestMembership:
    def test_insert_and_contains(self, view):
        policy = make_lru(view, [1, 2])
        assert 1 in policy
        assert 3 not in policy
        assert len(policy) == 2

    def test_double_insert_rejected(self, view):
        policy = make_lru(view, [1])
        with pytest.raises(ValueError):
            policy.insert(1)

    def test_remove(self, view):
        policy = make_lru(view, [1, 2])
        policy.remove(1)
        assert 1 not in policy
        assert len(policy) == 1

    def test_remove_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_lru(view).remove(9)

    def test_access_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_lru(view).on_access(9)

    def test_pages_returns_all(self, view):
        policy = make_lru(view, [3, 1, 2])
        assert sorted(policy.pages()) == [1, 2, 3]


class TestOrdering:
    def test_victim_is_least_recently_used(self, view):
        policy = make_lru(view, [1, 2, 3])
        assert policy.select_victim() == 1

    def test_access_refreshes_recency(self, view):
        policy = make_lru(view, [1, 2, 3])
        policy.on_access(1)
        assert policy.select_victim() == 2

    def test_eviction_order_matches_lru_order(self, view):
        policy = make_lru(view, [1, 2, 3])
        policy.on_access(2)
        assert list(policy.eviction_order()) == [1, 3, 2]

    def test_cold_insert_goes_to_eviction_end(self, view):
        policy = make_lru(view, [1, 2])
        policy.insert(99, cold=True)
        assert policy.select_victim() == 99

    def test_pinned_pages_skipped(self, view):
        policy = make_lru(view, [1, 2, 3])
        view.pinned.add(1)
        assert policy.select_victim() == 2
        assert list(policy.eviction_order()) == [2, 3]

    def test_all_pinned_yields_none(self, view):
        policy = make_lru(view, [1, 2])
        view.pinned.update([1, 2])
        assert policy.select_victim() is None
        assert list(policy.eviction_order()) == []

    def test_empty_policy_yields_none(self, view):
        assert make_lru(view).select_victim() is None

    def test_eviction_order_has_no_side_effects(self, view):
        policy = make_lru(view, [1, 2, 3])
        first = list(policy.eviction_order())
        second = list(policy.eviction_order())
        assert first == second
        assert policy.select_victim() == first[0]


class TestVirtualOrderHelpers:
    def test_next_dirty_filters(self, view):
        policy = make_lru(view, [1, 2, 3, 4])
        view.dirty.update([2, 4])
        assert policy.next_dirty(2) == [2, 4]
        assert policy.next_dirty(1) == [2]
        assert policy.next_dirty(10) == [2, 4]

    def test_next_evictable(self, view):
        policy = make_lru(view, [1, 2, 3])
        assert policy.peek(2) == [1, 2]

    def test_negative_n_rejected(self, view):
        policy = make_lru(view, [1])
        with pytest.raises(ValueError):
            policy.next_dirty(-1)
        with pytest.raises(ValueError):
            policy.peek(-1)


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["insert", "access", "remove"]), st.integers(0, 20)),
            max_size=200,
        )
    )
    def test_reference_model(self, operations):
        """LRU policy matches a naive list-based reference implementation."""
        from tests.policies.fake_view import FakeView

        view = FakeView()
        policy = make_lru(view)
        reference: list[int] = []  # index 0 = LRU end
        for op, page in operations:
            if op == "insert" and page not in reference:
                policy.insert(page)
                reference.append(page)
            elif op == "access" and page in reference:
                policy.on_access(page)
                reference.remove(page)
                reference.append(page)
            elif op == "remove" and page in reference:
                policy.remove(page)
                reference.remove(page)
        assert list(policy.eviction_order()) == reference
        assert len(policy) == len(reference)
