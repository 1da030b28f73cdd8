"""The callables each policy publishes to the executor's inlined loop.

``ReplacementPolicy.hooks()`` hands the loop its per-request calls: hit,
insert, remove, and the dirty/clean listeners (``None`` for a policy that
does not listen).  Exact LRU hands over its ordered map's own methods; a
hook overridden in a subclass or on the instance is published as is, so
the loop never skips an override.  The manager binds one callable per
dirty/clean transition, which calls the policy only if it listens.
"""

from __future__ import annotations

import pytest

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.core.stack import VARIANTS
from repro.engine import executor
from repro.engine.executor import run_trace
from repro.policies.lru import LRUPolicy
from repro.policies.registry import make_policy
from repro.workloads.synthetic import MS, generate_trace

from tests.engine.test_executor_fastpath import (
    CAPACITY,
    NUM_PAGES,
    OPTIONS,
    build,
    fingerprint,
    per_request,
    stack_device,
)
from tests.policies.classic import EVERY_POLICY

#: The policy method behind each published per-request slot.
SLOTS = ("on_access", "insert", "remove")


class TouchCountingLRU(LRUPolicy):
    """LRU that records every hit it hears: overrides ``on_access`` only."""

    name = "touch_counting_lru"

    def __init__(self) -> None:
        super().__init__()
        self.touched: list[tuple[int, bool]] = []

    def on_access(self, page: int, is_write: bool = False) -> None:
        self.touched.append((page, is_write))
        super().on_access(page, is_write)


def map_methods(policy: LRUPolicy) -> tuple:
    order = policy._order
    return order.move_to_end, order.__setitem__, order.__delitem__


@pytest.mark.parametrize("name", (*EVERY_POLICY, "touch_counting_lru"))
def test_capability_census(name):
    """Each slot is the ordered map's method iff the class inherits LRU's
    own hook, and the policy's bound method otherwise."""
    policy = (
        TouchCountingLRU() if name == "touch_counting_lru"
        else make_policy(name, CAPACITY)
    )
    published = policy.hooks()
    lru = isinstance(policy, LRUPolicy)
    for slot, hook in enumerate(SLOTS):
        inherited = lru and getattr(type(policy), hook) is getattr(LRUPolicy, hook)
        expected = map_methods(policy)[slot] if inherited else getattr(policy, hook)
        assert published[slot] == expected, (name, hook)
    # Only exact LRU hands over the map whole: CFLRU and LRU-WSR override
    # every hook (their segments and cold flags move with the order), the
    # test-local subclass its hits alone.
    assert (lru and published[:3] == map_methods(policy)) is (name == "lru")
    # CFLRU (its window counter) is the one dirty/clean listener.
    dirtied, cleaned = published[3:]
    if name == "cflru":
        assert (dirtied, cleaned) == (policy.note_dirty, policy.note_clean)
    else:
        assert dirtied is cleaned is None


def test_instance_overrides_are_published():
    """A hook replaced on the instance (a recorder, a sanitiser-style
    wrapper) is published in place of the map method or the no-op."""
    policy = LRUPolicy()
    heard: list[tuple[str, int]] = []
    for hook in (*SLOTS, "note_dirty", "note_clean"):
        original = getattr(policy, hook)

        def recorder(page, *args, _hook=hook, _original=original):
            heard.append((_hook, page))
            return _original(page, *args)

        setattr(policy, hook, recorder)
    hit, insert, remove, dirtied, cleaned = policy.hooks()
    insert(5, None)
    hit(5)
    dirtied(5)
    cleaned(5)
    remove(5)
    assert heard == [
        ("insert", 5), ("on_access", 5), ("note_dirty", 5),
        ("note_clean", 5), ("remove", 5),
    ]
    assert len(policy) == 0


@pytest.mark.parametrize("name", EVERY_POLICY)
def test_the_manager_wires_the_published_hooks(name):
    manager = build(name, "ace")
    _, insert, remove, _, _ = manager.policy.hooks()
    assert (manager._policy_insert, manager._policy_remove) == (insert, remove)
    # A transition costs the mirror set's own method unless the policy
    # listens; CFLRU (its window counter) is the one listener.
    listens = name == "cflru"
    assert (manager._mark_dirty == manager._dirty_set.add) is not listens
    assert (manager._mark_clean == manager._dirty_set.discard) is not listens


def run_touch_counting(variant, stack, force_slow):
    device = stack_device(stack)
    policy = TouchCountingLRU()
    wal = WriteAheadLog(device.clock) if stack == "wal" else None
    if variant == "baseline":
        manager = BufferPoolManager(CAPACITY, policy, device, wal=wal, sanitize=False)
    else:
        config = ACEConfig.for_device(
            device.profile, prefetch_enabled=(variant == "ace+pf")
        )
        manager = ACEBufferPoolManager(
            CAPACITY, policy, device, wal=wal, config=config, sanitize=False
        )
    assert executor._turbo_ready(manager)
    trace = generate_trace(MS, NUM_PAGES, 1500, seed=11)
    with per_request(force_slow):
        metrics = run_trace(manager, trace, options=OPTIONS)
    return fingerprint(manager, metrics), policy.touched


@pytest.mark.parametrize("stack", ("bare", "wal"))
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_inlined_loop_calls_an_override(variant, stack):
    """The loop hears every hit through the override, exactly as the
    reference arm does, and the two arms end in the same state."""
    fast, fast_touched = run_touch_counting(variant, stack, force_slow=False)
    slow, slow_touched = run_touch_counting(variant, stack, force_slow=True)
    assert fast == slow
    assert fast_touched == slow_touched
    assert len(fast_touched) == fast["buffer"]["hits"] > 0
    assert {is_write for _, is_write in fast_touched} == {False, True}
