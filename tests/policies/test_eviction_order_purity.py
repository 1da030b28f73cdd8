"""``eviction_order()`` purity: the virtual order must be a pure peek.

ACE's Writer and Evictor consume the virtual order repeatedly between
accesses (paper Section III); any state mutation inside
``eviction_order()`` would make the bufferpool's behaviour depend on *how
often the background components look*, which is exactly the coupling the
virtual-order refactoring removes.  This suite drives every policy the
batteries know (the paper's four, MRU and the seven classic fixtures)
into a populated, dirty/pinned-mixed state and asserts that
consuming the order — fully, partially, or twice — leaves the policy's
state bit-identical and the order itself stable.

The runtime side of the same contract is the sanitizer's
``virtual-order-purity`` check; this suite is the exhaustive per-policy
proof.
"""

import random

import pytest

from repro.analyze.sanitizer import _snapshot
from repro.policies.registry import make_policy

from tests.policies.fake_view import FakeView
from tests.policies.classic import EVERY_POLICY

CAPACITY = 12


def state_image(policy):
    """An order-sensitive snapshot of everything but the bound view."""
    return {
        name: _snapshot(value)
        for name, value in vars(policy).items()
        if name != "_view"
    }


def populated_policy(name, seed=42):
    """A policy driven through a deterministic mixed workload."""
    view = FakeView()
    policy = make_policy(name, CAPACITY)
    policy.bind(view)
    rng = random.Random(seed)
    resident = set()
    for _ in range(200):
        op = rng.choice(("insert", "insert", "access", "access", "remove"))
        page = rng.randrange(30)
        if op == "insert" and page not in resident:
            if len(resident) >= CAPACITY:
                victim = policy.select_victim()
                if victim is None:
                    continue
                policy.remove(victim)
                resident.discard(victim)
                view.dirty.discard(victim)
                view.pinned.discard(victim)
            policy.insert(page, cold=rng.random() < 0.2)
            resident.add(page)
        elif op == "access" and page in resident:
            is_write = rng.random() < 0.4
            policy.on_access(page, is_write=is_write)
            if is_write:
                view.dirty.add(page)
        elif op == "remove" and page in resident and page not in view.pinned:
            policy.remove(page)
            resident.discard(page)
            view.dirty.discard(page)
    # Pin a couple of resident pages so the pinned filter is exercised.
    for page in sorted(resident)[:2]:
        view.pinned.add(page)
    return policy, view, resident


@pytest.mark.parametrize("name", EVERY_POLICY)
class TestEvictionOrderPurity:
    def test_full_consumption_is_pure(self, name):
        policy, _, _ = populated_policy(name)
        before = state_image(policy)
        order = list(policy.eviction_order())
        assert state_image(policy) == before
        assert order, f"{name}: populated policy yielded an empty order"

    def test_partial_consumption_is_pure(self, name):
        # Background components abandon the iterator early all the time
        # (e.g. next_dirty(n) stops after n dirty pages); breaking out of
        # a generator must be as pure as draining it.
        policy, _, _ = populated_policy(name)
        before = state_image(policy)
        iterator = policy.eviction_order()
        next(iterator, None)
        next(iterator, None)
        iterator.close()
        assert state_image(policy) == before

    def test_order_is_stable_across_peeks(self, name):
        policy, _, _ = populated_policy(name)
        first = list(policy.eviction_order())
        second = list(policy.eviction_order())
        assert first == second

    def test_order_yields_unpinned_members_once(self, name):
        policy, view, resident = populated_policy(name)
        order = list(policy.eviction_order())
        assert len(order) == len(set(order)), f"{name}: duplicate yields"
        for page in order:
            assert page in resident
            assert page not in view.pinned

    def test_next_dirty_is_pure(self, name):
        # next_dirty() is the Writer's entry point into the virtual order;
        # it must inherit eviction_order()'s purity.
        policy, _, _ = populated_policy(name)
        before = state_image(policy)
        policy.next_dirty(4)
        assert state_image(policy) == before
