"""Tests for the FOR-inspired operation-aware policy."""

import pytest

from tests.policies.classic.flash_for import FORPolicy


def make_for(view, pages=(), alpha=2.0, decay=0.95):
    policy = FORPolicy(alpha=alpha, decay=decay)
    policy.bind(view)
    for page in pages:
        policy.insert(page)
    return policy


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            FORPolicy(alpha=0.5)
        with pytest.raises(ValueError):
            FORPolicy(decay=0.0)
        with pytest.raises(ValueError):
            FORPolicy(decay=1.5)


class TestWeights:
    def test_clean_weight_is_read_frequency(self, view):
        policy = make_for(view, [1])
        policy.on_access(1, is_write=False)
        assert policy.weight(1) == pytest.approx(1.0 * 0.95 + 1.0)

    def test_dirty_page_gains_asymmetry_weight(self, view):
        policy = make_for(view, [1], alpha=3.0)
        policy.on_access(1, is_write=True)
        view.dirty.add(1)
        clean_equivalent = policy._read_freq[1]
        assert policy.weight(1) == pytest.approx(clean_equivalent + 3.0)

    def test_decay_fades_history(self, view):
        policy = make_for(view, [1], decay=0.5)
        for _ in range(20):
            policy.on_access(1)
        stable_weight = policy.weight(1)
        # Geometric series: bounded by 1 / (1 - decay) + 1.
        assert stable_weight < 3.0

    def test_cold_insert_weightless(self, view):
        policy = make_for(view)
        policy.insert(1, cold=True)
        assert policy.weight(1) == 0.0


class TestVictimSelection:
    def test_evicts_lowest_weight(self, view):
        policy = make_for(view, [1, 2, 3])
        policy.on_access(2)
        policy.on_access(3)
        assert policy.select_victim() == 1

    def test_dirty_frequent_writer_retained(self, view):
        """A hot dirty page outweighs a lukewarm clean one (alpha scaling)."""
        policy = make_for(view, [1, 2], alpha=4.0)
        policy.on_access(1, is_write=True)   # dirty, written once
        policy.on_access(2, is_write=False)
        policy.on_access(2, is_write=False)  # clean, read twice
        view.dirty.add(1)
        # weight(1) ~ alpha * 1 = 4 > weight(2) ~ 2.9
        assert policy.select_victim() == 2

    def test_recency_breaks_ties(self, view):
        policy = make_for(view, [1, 2])
        assert policy.select_victim() == 1

    def test_pinned_skipped(self, view):
        policy = make_for(view, [1, 2])
        view.pinned.add(1)
        assert policy.select_victim() == 2

    def test_order_head_matches_victim(self, view):
        policy = make_for(view, [1, 2, 3, 4])
        policy.on_access(3, is_write=True)
        view.dirty.add(3)
        order = list(policy.eviction_order())
        assert policy.select_victim() == order[0]


class TestLifecycle:
    def test_double_insert_rejected(self, view):
        policy = make_for(view, [1])
        with pytest.raises(ValueError):
            policy.insert(1)

    def test_remove_cleans_state(self, view):
        policy = make_for(view, [1])
        policy.remove(1)
        assert 1 not in policy
        with pytest.raises(KeyError):
            policy.on_access(1)

    def test_registry_integration(self):
        from repro.policies.registry import display_name, make_policy

        policy = make_policy("for", 16)
        assert isinstance(policy, FORPolicy)
        assert display_name("for") == "FOR"
