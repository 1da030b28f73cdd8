"""Differential tests: maintained fast paths vs the reference order.

The incremental virtual-order engine gives every policy maintained
``peek`` / ``next_dirty`` / ``next_clean`` bulk reads; ``eviction_order()``
survives as the *reference* implementation.  These tests drive each policy
through long randomized access/dirty/pin/remove sequences behind a
``FakeView`` that forwards dirty transitions as the real manager does, and
assert, after every step, that each fast path returns exactly the prefix
the sanitizer's :func:`~repro.analyze.sanitizer.reference_prefixes`
derives from ``eviction_order()``.

A second battery runs a real sanitised :class:`BufferPoolManager` per
policy, so the sanitizer's own fast-path check (the ``fast-path-*``
invariants) is exercised end-to-end under mixed read/write/pin traffic.
"""

from __future__ import annotations

import random

import pytest

from repro.analyze.sanitizer import reference_prefixes
from repro.bufferpool.manager import BufferPoolManager
from repro.policies.cflru import CFLRUPolicy
from repro.policies.registry import make_policy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile

from tests.policies.classic import EVERY_POLICY
from tests.policies.fake_view import FakeView

CAPACITY = 12

#: Overhead-free deterministic profile (mirrors the bufferpool conftest).
TEST_PROFILE = DeviceProfile(
    name="test", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)


def assert_fast_paths_match(policy, context: str) -> None:
    """Every bulk read equals its reference prefix, for several widths."""
    for n in (0, 1, 3, 8, len(policy) + 2):
        for label, expected in reference_prefixes(policy, n).items():
            got = getattr(policy, label)(n)
            assert got == expected, (
                f"{type(policy).__name__}.{label}({n}) diverged from the "
                f"reference order {context}: {got} != {expected}"
            )


def drive(policy, view, rng, steps: int, allow_pins: bool) -> None:
    """Randomized insert/access/dirty/clean/pin/unpin/remove traffic."""
    next_page = 0
    for step in range(steps):
        tracked = policy.pages()
        roll = rng.random()
        if not tracked or (roll < 0.25 and len(policy) < CAPACITY):
            cold = rng.random() < 0.3
            policy.insert(next_page, cold=cold)
            if rng.random() < 0.3:
                view.mark_dirty(next_page)
            next_page += 1
        elif roll < 0.55:
            page = rng.choice(tracked)
            is_write = rng.random() < 0.4
            policy.on_access(page, is_write=is_write)
            if is_write:
                view.mark_dirty(page)
        elif roll < 0.70:
            # Dirty an arbitrary resident page, not necessarily the MRU:
            # neither the filtered scans nor CFLRU's window counter may
            # assume a page is dirtied only where it was just touched.
            view.mark_dirty(rng.choice(tracked))
        elif roll < 0.80:
            dirty = [p for p in tracked if view.is_dirty(p)]
            if dirty:
                view.mark_clean(rng.choice(dirty))
        elif roll < 0.90 and allow_pins:
            page = rng.choice(tracked)
            if view.is_pinned(page):
                view.pinned.discard(page)
            else:
                view.pinned.add(page)
        else:
            unpinned = [p for p in tracked if not view.is_pinned(p)]
            if unpinned:
                page = rng.choice(unpinned)
                policy.remove(page)
                view.dirty.discard(page)
        assert_fast_paths_match(policy, f"after step {step}")
        if isinstance(policy, CFLRUPolicy):
            recount = sum(map(view.is_dirty, policy._window))
            assert policy._window_dirty == recount, (
                f"CFLRU's window counter drifted after step {step}: "
                f"{policy._window_dirty} != {recount}"
            )


@pytest.mark.parametrize("name", EVERY_POLICY)
@pytest.mark.parametrize("seed", [7, 191])
def test_fast_paths_match_reference(name, seed):
    """No pins: the maintained fast paths run live and must agree."""
    policy = make_policy(name, CAPACITY)
    view = FakeView()
    view.bind(policy)
    drive(policy, view, random.Random(seed), steps=300, allow_pins=False)


@pytest.mark.parametrize("name", EVERY_POLICY)
def test_fast_paths_match_reference_with_pins(name):
    """With pins: gated paths fall back, always-on paths filter pins."""
    policy = make_policy(name, CAPACITY)
    view = FakeView()
    view.bind(policy)
    drive(policy, view, random.Random(29), steps=300, allow_pins=True)


@pytest.mark.parametrize("name", EVERY_POLICY)
def test_unnotified_view_keeps_reference_semantics(name):
    """The bulk reads never depend on dirty notifications: a view that
    dirties and cleans pages without telling the policy gets the
    reference prefixes all the same."""
    policy = make_policy(name, CAPACITY)
    view = FakeView()
    policy.bind(view)
    rng = random.Random(3)
    for page in range(8):
        policy.insert(page)
    for _ in range(60):
        page = rng.randrange(8)
        policy.on_access(page)
        if rng.random() < 0.5:
            view.dirty.add(page)
        elif page in view.dirty:
            view.dirty.discard(page)
        assert_fast_paths_match(policy, "with unnotified dirty state")


@pytest.mark.parametrize("name", EVERY_POLICY)
def test_sanitized_manager_workload(name):
    """End-to-end: a sanitised manager validates the fast paths per op."""
    device = SimulatedSSD(TEST_PROFILE, num_pages=64)
    device.format_pages(range(64))
    manager = BufferPoolManager(
        CAPACITY, make_policy(name, CAPACITY), device, sanitize=True
    )
    rng = random.Random(1337)
    pinned: list[int] = []
    for _ in range(250):
        page = rng.randrange(64)
        roll = rng.random()
        if roll < 0.45:
            manager.read_page(page)
        elif roll < 0.80:
            manager.write_page(page, payload=b"x")
        elif roll < 0.90 and len(pinned) < CAPACITY - 2:
            manager.read_page(page)
            manager.pin(page)
            pinned.append(page)
        elif pinned:
            manager.unpin(pinned.pop())
    while pinned:
        manager.unpin(pinned.pop())
    manager.flush_all()
    manager.sanitizer.assert_clean()
    assert manager.sanitizer.checks_run > 250
