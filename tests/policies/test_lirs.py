"""Tests for LIRS replacement."""

import random

import pytest

from tests.policies.classic.lirs import LIRSPolicy


def make_lirs(view, capacity=10, hir_fraction=0.2, pages=()):
    policy = LIRSPolicy(capacity=capacity, hir_fraction=hir_fraction)
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            LIRSPolicy(capacity=1)
        with pytest.raises(ValueError):
            LIRSPolicy(capacity=10, hir_fraction=0.0)
        with pytest.raises(ValueError):
            LIRSPolicy(capacity=10, hir_fraction=1.0)

    def test_targets_partition_capacity(self):
        policy = LIRSPolicy(capacity=10, hir_fraction=0.2)
        assert policy.hir_target == 2
        assert policy.lir_target == 8


class TestStatusTransitions:
    def test_warmup_fills_lir_first(self, view):
        policy = make_lirs(view, capacity=10, pages=[1, 2, 3])
        for page in (1, 2, 3):
            assert policy.status_of(page) == "lir"

    def test_overflow_inserts_become_hir(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4])
        # lir_target = 3: pages 1-3 LIR, 4 HIR.
        assert policy.status_of(4) == "hir"

    def test_hir_hit_in_stack_promotes(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4])
        policy.on_access(4)  # 4 was in S as HIR: low IRR -> LIR
        assert policy.status_of(4) == "lir"
        # Some previous LIR page was demoted to keep the target.
        statuses = [policy.status_of(p) for p in (1, 2, 3)]
        assert statuses.count("hir") == 1

    def test_ghost_reappearance_promotes(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4])
        policy.remove(4)  # leaves a ghost in S
        policy.insert(4)  # back within stack memory: straight to LIR
        assert policy.status_of(4) == "lir"

    def test_cold_insert_is_hir_front(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4])
        policy.insert(9, cold=True)
        assert policy.status_of(9) == "hir"
        assert policy.select_victim() == 9

    def test_remove_untracked_rejected(self, view):
        with pytest.raises(KeyError):
            make_lirs(view).remove(5)

    def test_double_insert_rejected(self, view):
        policy = make_lirs(view, pages=[1])
        with pytest.raises(ValueError):
            policy.insert(1)


class TestVictims:
    def test_hir_queue_drains_before_lir(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4, 5])
        order = list(policy.eviction_order())
        # HIR pages (4, 5) come before any LIR page.
        hir = {p for p in (1, 2, 3, 4, 5) if policy.status_of(p) == "hir"}
        assert set(order[: len(hir)]) == hir

    def test_pinned_skipped(self, view):
        policy = make_lirs(view, capacity=5, hir_fraction=0.4,
                           pages=[1, 2, 3, 4])
        victim = policy.select_victim()
        view.pinned.add(victim)
        assert policy.select_victim() != victim

    def test_order_head_matches_victim(self, view):
        policy = make_lirs(view, capacity=6, hir_fraction=0.34,
                           pages=[1, 2, 3, 4, 5, 6])
        policy.on_access(5)
        order = list(policy.eviction_order())
        assert policy.select_victim() == order[0]

    def test_empty_returns_none(self, view):
        assert make_lirs(view).select_victim() is None


class TestScanResistance:
    def test_loop_working_set_survives_scan(self, view):
        """LIRS's signature: a one-pass scan cannot displace the LIR set."""
        policy = make_lirs(view, capacity=10, hir_fraction=0.2)
        # Establish a hot working set (re-referenced -> LIR).
        for page in range(8):
            policy.insert(page)
        for _ in range(3):
            for page in range(8):
                policy.on_access(page)
        # Scan 100 cold pages through the cache.
        for page in range(1000, 1100):
            while len(policy) >= 10:
                victim = policy.select_victim()
                policy.remove(victim)
            policy.insert(page)
        survivors = [p for p in range(8) if p in policy]
        assert len(survivors) >= 7

    def test_lru_style_workload_behaves(self, view):
        """Randomized smoke: structures stay consistent under churn."""
        rng = random.Random(3)
        policy = make_lirs(view, capacity=12, hir_fraction=0.25)
        resident: set[int] = set()
        for _ in range(2000):
            page = rng.randrange(60)
            if page in resident:
                policy.on_access(page)
            else:
                while len(resident) >= 12:
                    victim = policy.select_victim()
                    assert victim in resident
                    policy.remove(victim)
                    resident.discard(victim)
                policy.insert(page)
                resident.add(page)
            assert len(policy) == len(resident)
        assert set(policy.pages()) == resident


class TestIntegration:
    def test_registry_and_ace(self):
        from repro.policies.registry import make_policy
        from repro.bench.runner import StackConfig, build_stack
        from repro.storage.profiles import PCIE_SSD

        assert isinstance(make_policy("lirs", 16), LIRSPolicy)
        config = StackConfig(
            profile=PCIE_SSD, policy="lirs", variant="ace",
            num_pages=256, pool_fraction=0.08,
        )
        manager = build_stack(config)
        rng = random.Random(5)
        for _ in range(800):
            manager.access(rng.randrange(256), rng.random() < 0.5)
        assert manager.pool.used_count <= manager.capacity
        manager.flush_all()
        assert manager.dirty_pages() == []
