"""Shared fixtures for bufferpool tests."""

from __future__ import annotations

import pytest

from repro.bufferpool.manager import BufferPoolManager
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile

#: A deterministic overhead-free device profile for unit tests.
TEST_PROFILE = DeviceProfile(
    name="test", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)


def make_device(num_pages=256, with_ftl=False):
    device = SimulatedSSD(TEST_PROFILE, num_pages=num_pages, with_ftl=with_ftl)
    device.format_pages(range(num_pages))
    return device


def make_manager(capacity=8, num_pages=256, policy=None, wal=None, with_ftl=False):
    device = make_device(num_pages, with_ftl=with_ftl)
    if policy is None:
        policy = LRUPolicy()
    return BufferPoolManager(capacity, policy, device, wal=wal)


@pytest.fixture
def manager():
    return make_manager()
