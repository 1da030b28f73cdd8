"""Tests for the policy registry."""

import pytest

from repro.policies.base import ReplacementPolicy
from repro.policies.cflru import CFLRUPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.registry import (
    PAPER_POLICIES,
    display_name,
    make_policy,
    register_policy,
)

from tests.policies.classic import EVERY_POLICY


class TestRegistry:
    def test_paper_policies_registered(self):
        for name in PAPER_POLICIES:
            policy = make_policy(name, capacity=16)
            assert isinstance(policy, ReplacementPolicy)

    def test_all_registered_names_construct(self):
        for name in EVERY_POLICY:
            assert isinstance(make_policy(name, 16), ReplacementPolicy)

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known policies"):
            make_policy("bogus", 16)

    def test_capacity_forwarded_to_cflru(self):
        policy = make_policy("cflru", capacity=30)
        assert isinstance(policy, CFLRUPolicy)
        assert policy.capacity == 30

    def test_display_names(self):
        assert display_name("clock") == "Clock Sweep"
        assert display_name("lru_wsr") == "LRU-WSR"
        assert display_name("unknown-policy") == "unknown-policy"

    def test_register_custom_policy(self):
        try:
            register_policy("my_lru", lambda capacity: LRUPolicy(), display="My LRU")
            policy = make_policy("my_lru", 8)
            assert isinstance(policy, LRUPolicy)
            assert display_name("my_lru") == "My LRU"
        finally:
            # Keep the registry clean for other tests.
            from repro.policies import registry
            registry._FACTORIES.pop("my_lru", None)
            registry.DISPLAY_NAMES.pop("my_lru", None)

    def test_double_registration_rejected(self):
        with pytest.raises(ValueError):
            register_policy("lru", lambda capacity: LRUPolicy())
