"""Consistency matrix: every policy the batteries know x every variant.

Randomised mixed workloads driven through each (policy, variant) pair with
the full invariant set checked afterwards: pool bounds, policy/table
agreement, frame-column/fast-set consistency, durability after checkpoint.
"""

import random

import pytest

from repro.bench.runner import StackConfig, build_stack
from repro.storage.profiles import PCIE_SSD

from tests.policies.classic import EVERY_POLICY

NUM_PAGES = 512
CAPACITY_FRACTION = 0.05  # ~25 frames: heavy eviction pressure


def run_mixed(policy: str, variant: str, seed: int = 17, ops: int = 1200):
    config = StackConfig(
        profile=PCIE_SSD,
        policy=policy,
        variant=variant,
        num_pages=NUM_PAGES,
        pool_fraction=CAPACITY_FRACTION,
    )
    manager = build_stack(config)
    rng = random.Random(seed)
    versions: dict[int, int] = {}
    for _ in range(ops):
        page = rng.randrange(NUM_PAGES)
        if rng.random() < 0.5:
            versions[page] = manager.write_page(page)
        else:
            manager.read_page(page)
    return manager, versions


def check_invariants(manager, versions):
    # Pool bounds.
    assert manager.pool.used_count <= manager.capacity
    assert manager.pool.used_count + manager.pool.free_count == manager.capacity
    # Policy and buffer table agree on residency.
    assert set(manager.policy.pages()) == set(manager.resident_pages())
    assert len(manager.policy) == len(manager.table)
    # Fast dirty set mirrors the frames' dirty bits.
    pool = manager.pool
    dirty = {page for page, bit in zip(pool.page_of, pool.dirty_bits) if page >= 0 and bit}
    assert dirty == manager._dirty_set
    # Checkpoint: every acknowledged write is durable afterwards.
    manager.flush_all()
    assert manager.dirty_pages() == []
    for page, version in versions.items():
        assert manager.device._payloads[page] == version


@pytest.mark.parametrize("policy", EVERY_POLICY)
@pytest.mark.parametrize("variant", ("baseline", "ace", "ace+pf"))
def test_policy_variant_matrix(policy, variant):
    manager, versions = run_mixed(policy, variant)
    check_invariants(manager, versions)


@pytest.mark.parametrize("policy", EVERY_POLICY)
def test_ace_improves_or_matches_every_policy(policy):
    """ACE wraps any registered policy without losing (paper's claim)."""
    base_manager, _ = run_mixed(policy, "baseline", seed=23)
    ace_manager, _ = run_mixed(policy, "ace", seed=23)
    assert (
        ace_manager.device.clock.now_us
        <= base_manager.device.clock.now_us * 1.001
    )
