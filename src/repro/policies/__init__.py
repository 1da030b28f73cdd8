"""Page replacement policies and the virtual-order API ACE builds on."""

from repro.policies.base import ReplacementPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.lru_wsr import LRUWSRPolicy
from repro.policies.registry import register_policy

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "LRUWSRPolicy",
    "register_policy",
]
