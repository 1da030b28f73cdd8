"""Variant string -> manager: the one place a stack's manager is chosen.

Every harness (experiment runner, cluster shards and replica-group
members, crash-point verifier) builds its own device — they differ in
what wraps it — and then hands it here, so "which class, which
:class:`~repro.core.config.ACEConfig`" is decided once.
"""

from __future__ import annotations

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.faults.retry import RetryPolicy
from repro.policies.registry import make_policy
from repro.prefetch.base import Prefetcher
from repro.storage.device import SimulatedSSD

__all__ = ["VARIANTS", "build_manager"]

#: The three bufferpool variants every figure compares.
VARIANTS = ("baseline", "ace", "ace+pf")


def build_manager(
    device: SimulatedSSD,
    capacity: int,
    policy: str,
    variant: str,
    *,
    n_w: int | None = None,
    n_e: int | None = None,
    wal: WriteAheadLog | None = None,
    prefetcher: Prefetcher | None = None,
    sanitize: bool | None = None,
    retry: RetryPolicy | None = None,
) -> BufferPoolManager:
    """The ``variant`` manager over a ready (formatted, wrapped) device.

    ``policy`` is a registry name; ``n_w``/``n_e`` override the paper's
    ``k_w`` tuning of the device's profile and ``prefetcher`` replaces
    the default composite — all three only matter to the ACE variants.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    replacement = make_policy(policy, capacity)
    if variant == "baseline":
        return BufferPoolManager(
            capacity, replacement, device, wal=wal,
            sanitize=sanitize, retry=retry,
        )
    config = ACEConfig.for_device(
        device.profile,
        prefetch_enabled=(variant == "ace+pf"),
        n_w=n_w,
        n_e=n_e,
    )
    return ACEBufferPoolManager(
        capacity, replacement, device, wal=wal, config=config,
        prefetcher=prefetcher, sanitize=sanitize, retry=retry,
    )
