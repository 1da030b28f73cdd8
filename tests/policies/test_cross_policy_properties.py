"""Generic properties every replacement policy must satisfy: the paper's
four, MRU and the seven classic fixtures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.registry import make_policy

from tests.policies.fake_view import FakeView
from tests.policies.classic import EVERY_POLICY

CAPACITY = 12


def drive(policy, view, operations):
    """Apply a random op sequence, keeping membership consistent."""
    resident: set[int] = set()
    for op, page in operations:
        if op == "insert" and page not in resident:
            if len(resident) >= CAPACITY:
                victim = policy.select_victim()
                if victim is None:
                    continue
                policy.remove(victim)
                resident.discard(victim)
                view.dirty.discard(victim)
            policy.insert(page)
            resident.add(page)
        elif op == "access" and page in resident:
            is_write = page % 2 == 0
            policy.on_access(page, is_write=is_write)
            if is_write:
                view.mark_dirty(page)
        elif op == "remove" and page in resident and not view.is_dirty(page):
            policy.remove(page)
            resident.discard(page)
    return resident


operations_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "access", "remove"]),
        st.integers(0, 30),
    ),
    max_size=150,
)


@pytest.mark.parametrize("name", EVERY_POLICY)
class TestEveryPolicy:
    @settings(max_examples=15, deadline=None)
    @given(operations=operations_strategy)
    def test_membership_consistency(self, name, operations):
        view = FakeView()
        policy = make_policy(name, CAPACITY)
        view.bind(policy)
        resident = drive(policy, view, operations)
        assert len(policy) == len(resident)
        assert set(policy.pages()) == resident
        for page in resident:
            assert page in policy

    @settings(max_examples=15, deadline=None)
    @given(operations=operations_strategy)
    def test_eviction_order_is_a_permutation(self, name, operations):
        """The virtual order yields every unpinned page exactly once."""
        view = FakeView()
        policy = make_policy(name, CAPACITY)
        view.bind(policy)
        resident = drive(policy, view, operations)
        order = list(policy.eviction_order())
        assert len(order) == len(set(order)), f"{name} yielded duplicates"
        assert set(order) == resident

    @settings(max_examples=15, deadline=None)
    @given(operations=operations_strategy)
    def test_victim_is_resident_and_unpinned(self, name, operations):
        view = FakeView()
        policy = make_policy(name, CAPACITY)
        view.bind(policy)
        resident = drive(policy, view, operations)
        victim = policy.select_victim()
        if resident:
            assert victim in resident
        else:
            assert victim is None

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pinned_pages_never_selected(self, name, seed):
        rng = random.Random(seed)
        view = FakeView()
        policy = make_policy(name, CAPACITY)
        view.bind(policy)
        pages = list(range(8))
        for page in pages:
            policy.insert(page)
        pinned = set(rng.sample(pages, 4))
        view.pinned |= pinned
        for _ in range(4):
            victim = policy.select_victim()
            assert victim is not None
            assert victim not in pinned
            policy.remove(victim)
        assert set(policy.pages()) >= pinned

    def test_cold_insert_is_early_in_virtual_order(self, name):
        """A cold (prefetched) page must leave among the first — wrong
        predictions have to be cheap for every policy ACE wraps."""
        view = FakeView()
        policy = make_policy(name, CAPACITY)
        view.bind(policy)
        for page in range(6):
            policy.insert(page)
            policy.on_access(page)
        policy.insert(99, cold=True)
        order = list(policy.eviction_order())
        assert order.index(99) <= 2, f"{name} buried the cold page: {order}"
