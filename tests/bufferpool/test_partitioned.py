"""Tests for the partitioned bufferpool."""

import dataclasses
import random

import pytest

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.stats import BufferStats
from repro.cluster.partitioned import PartitionedBufferPoolManager
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.engine.executor import run_trace
from repro.policies.lru import LRUPolicy
from repro.workloads.synthetic import MS, generate_trace

from tests.bufferpool.conftest import make_device


def baseline_factory(capacity, device):
    return BufferPoolManager(capacity, LRUPolicy(), device)


def ace_factory(capacity, device):
    return ACEBufferPoolManager(
        capacity, LRUPolicy(), device, config=ACEConfig(n_w=4, n_e=4)
    )


def make_partitioned(capacity=16, partitions=4, factory=baseline_factory,
                     num_pages=256):
    device = make_device(num_pages)
    return PartitionedBufferPoolManager(capacity, partitions, device, factory)


class TestConstruction:
    def test_capacity_split_evenly(self):
        manager = make_partitioned(capacity=10, partitions=4)
        capacities = [p.capacity for p in manager.partitions]
        assert sorted(capacities) == [2, 2, 3, 3]
        assert sum(capacities) == 10

    def test_validation(self):
        device = make_device()
        with pytest.raises(ValueError):
            PartitionedBufferPoolManager(4, 0, device, baseline_factory)
        with pytest.raises(ValueError):
            PartitionedBufferPoolManager(2, 4, device, baseline_factory)

    def test_repr(self):
        assert "partitions=4" in repr(make_partitioned())


class TestRouting:
    def test_page_always_routed_to_same_partition(self):
        manager = make_partitioned()
        first = manager.partition_of(42)
        for _ in range(5):
            assert manager.partition_of(42) is first

    def test_read_write_through_partitions(self):
        manager = make_partitioned()
        manager.write_page(10)
        assert manager.read_page(10) == 1
        assert manager.contains(10)

    def test_partitions_isolated(self):
        """Evictions in one partition never touch another's pages."""
        manager = make_partitioned(capacity=8, partitions=2)
        # Find pages for each partition.
        p0_pages = [p for p in range(100) if hash(p) % 2 == 0]
        p1_pages = [p for p in range(100) if hash(p) % 2 == 1]
        manager.read_page(p1_pages[0])
        # Flood partition 0 far past its capacity.
        for page in p0_pages[:30]:
            manager.read_page(page)
        # Partition 1's page survived untouched.
        assert manager.contains(p1_pages[0])


class TestAggregation:
    def test_stats_aggregate(self):
        manager = make_partitioned()
        manager.read_page(1)
        manager.read_page(1)
        manager.write_page(2)
        stats = manager.stats
        assert stats.read_requests == 2
        assert stats.write_requests == 1
        assert stats.hits == 1
        assert stats.misses == 2

    def test_buffer_stats_merge_sums_every_field(self):
        names = [field.name for field in dataclasses.fields(BufferStats)]
        total = BufferStats(**{name: index for index, name in enumerate(names)})
        total.merge(BufferStats(**dict.fromkeys(names, 10)))
        assert dataclasses.astuple(total) == tuple(range(10, 10 + len(names)))

    def test_flush_all_across_partitions(self):
        manager = make_partitioned()
        for page in range(8):
            manager.write_page(page)
        flushed = manager.flush_all()
        assert flushed == 8
        assert manager.dirty_pages() == []

    def test_occupancy_reports_per_partition(self):
        manager = make_partitioned(capacity=16, partitions=4)
        for page in range(12):
            manager.read_page(page)
        occupancy = manager.occupancy()
        assert len(occupancy) == 4
        assert sum(occupancy) == 12

    def test_resident_pages_union(self):
        manager = make_partitioned()
        for page in (3, 5, 9):
            manager.read_page(page)
        assert sorted(manager.resident_pages()) == [3, 5, 9]


class TestWithACE:
    def test_ace_partitions_batch_writes(self):
        manager = make_partitioned(capacity=16, partitions=2,
                                   factory=ace_factory)
        rng = random.Random(4)
        for _ in range(600):
            manager.access(rng.randrange(256), rng.random() < 0.7)
        assert manager.device.stats.largest_write_batch > 1
        assert manager.stats.mean_writeback_batch > 1.5

    def test_partitioned_ace_durability(self):
        manager = make_partitioned(capacity=16, partitions=4,
                                   factory=ace_factory)
        rng = random.Random(5)
        versions = {}
        for _ in range(500):
            page = rng.randrange(256)
            versions[page] = manager.write_page(page)
        manager.flush_all()
        for page, version in versions.items():
            assert manager.device._payloads[page] == version

    def test_skew_imbalance_visible(self):
        """A skewed workload loads partitions unevenly — the design cost."""
        manager = make_partitioned(capacity=16, partitions=4)
        rng = random.Random(6)
        hot = [p for p in range(256) if hash(p) % 4 == 0][:10]
        for _ in range(400):
            if rng.random() < 0.9:
                manager.read_page(hot[rng.randrange(len(hot))])
            else:
                manager.read_page(rng.randrange(256))
        occupancy = manager.occupancy()
        assert max(occupancy) >= min(occupancy)


class TestThroughTheExecutor:
    """``run_trace`` drives the facade like any manager (it used to raise
    ``AttributeError`` on ``sanitizer`` and, warming up, on ``stats``)."""

    @pytest.mark.parametrize("warmup_ops", [0, 300])
    @pytest.mark.parametrize("factory", [baseline_factory, ace_factory])
    def test_one_partition_is_the_unpartitioned_pool(self, factory, warmup_ops):
        trace = generate_trace(MS, 256, 1200, seed=9)
        whole = factory(16, make_device(256))
        facade = make_partitioned(capacity=16, partitions=1, factory=factory)
        expected, got = (
            run_trace(manager, trace, label="run", warmup_ops=warmup_ops)
            for manager in (whole, facade)
        )
        assert got == expected
        assert got.buffer.misses > 16
        assert got.ops == len(trace) - warmup_ops

    def test_warm_up_resets_every_partition(self):
        manager = make_partitioned(capacity=16, partitions=4)
        trace = generate_trace(MS, 256, 1200, seed=9)
        metrics = run_trace(manager, trace, warmup_ops=300)
        assert metrics.buffer.accesses == 900 == manager.stats.accesses
