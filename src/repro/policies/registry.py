"""Name-based construction of replacement policies.

Benchmarks and examples refer to policies by name: the paper's four
("clock", "lru", "cflru", "lru_wsr") are built in, and
:func:`register_policy` adds any other.  Factories receive the bufferpool
capacity because some policies (CFLRU's clean-first window) are sized
relative to it.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.policies.base import ReplacementPolicy
from repro.policies.cflru import CFLRUPolicy
from repro.policies.clock import ClockSweepPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.lru_wsr import LRUWSRPolicy

__all__ = [
    "PAPER_POLICIES",
    "make_policy",
    "register_policy",
]

PolicyFactory = Callable[[int], ReplacementPolicy]

_FACTORIES: dict[str, PolicyFactory] = {
    "clock": lambda capacity: ClockSweepPolicy(),
    "lru": lambda capacity: LRUPolicy(),
    "cflru": lambda capacity: CFLRUPolicy(capacity),
    "lru_wsr": lambda capacity: LRUWSRPolicy(),
}

#: Display names used in reports, matching the paper's terminology.
DISPLAY_NAMES = {
    "clock": "Clock Sweep",
    "lru": "LRU",
    "cflru": "CFLRU",
    "lru_wsr": "LRU-WSR",
}

#: The four policies the paper evaluates, in the paper's order.
PAPER_POLICIES = ("clock", "lru", "cflru", "lru_wsr")


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Instantiate the policy registered under ``name``.

    ``capacity`` is the bufferpool size in pages; policies that size
    internal structures relative to the pool use it.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(_FACTORIES))
        raise KeyError(f"unknown policy {name!r}; known policies: {known}") from None
    return factory(capacity)


def register_policy(name: str, factory: PolicyFactory, display: str | None = None) -> None:
    """Register a user-defined policy factory under ``name``.

    This is the extension point the paper's "ease of adoption" goal implies:
    any replacement policy implementing :class:`ReplacementPolicy` can be
    registered and immediately gains an ACE counterpart.
    """
    if name in _FACTORIES:
        raise ValueError(f"policy {name!r} is already registered")
    _FACTORIES[name] = factory
    DISPLAY_NAMES[name] = display if display is not None else name


def display_name(name: str) -> str:
    """Human-readable policy name for reports."""
    return DISPLAY_NAMES.get(name, name)
