"""Partitioned bufferpool: pages sharded across independent sub-pools.

Production buffer managers partition their mapping structures (PostgreSQL
partitions the buffer table's lock, many engines shard the whole pool) so
that concurrent backends do not serialise on one latch.  The simulator has
no real concurrency, but partitioning still changes *behaviour*: each
partition runs its own replacement policy over a hash-slice of the page
space, so a hot page in one partition cannot evict a warm page in another.
The cost is imbalance — a skewed workload can overload one partition while
others idle frames.

:class:`PartitionedBufferPoolManager` composes N inner managers (baseline
or ACE — any factory) over one shared device, exposing the same client
API, and aggregates their statistics.  `bench`-style comparisons of
monolithic vs partitioned pools quantify the imbalance cost.

This is the *in-process* half of the sharding story; the page→shard
mapping itself is owned by :class:`~repro.cluster.router.HashShardRouter`
so the process-parallel cluster engine, the placement optimizer and this
class can never disagree about which shard a page belongs to.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.stats import BufferStats
from repro.cluster.router import HashShardRouter
from repro.storage.device import SimulatedSSD

__all__ = ["PartitionedBufferPoolManager"]

ManagerFactory = Callable[[int, SimulatedSSD], BufferPoolManager]


class PartitionedBufferPoolManager:
    """N independent sub-pools, pages routed by hash.

    Parameters
    ----------
    capacity:
        Total frames, split evenly across partitions (remainder to the
        first partitions).
    num_partitions:
        Number of sub-pools.
    device:
        Shared storage device (all partitions advance the same clock).
    manager_factory:
        Builds one sub-pool given (capacity, device) — e.g. a lambda
        returning a baseline or ACE manager with a fresh policy instance.
    """

    variant = "partitioned"

    #: The executor asks every manager; sanitised partitions carry their
    #: own checker, and the facade (no ``_plain_device``, so never
    #: turbo-ready) is replayed request by request either way.
    sanitizer = None

    def __init__(
        self,
        capacity: int,
        num_partitions: int,
        device: SimulatedSSD,
        manager_factory: ManagerFactory,
    ) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if capacity < num_partitions:
            raise ValueError(
                f"capacity {capacity} cannot fill {num_partitions} partitions"
            )
        self.capacity = capacity
        self.device = device
        #: The executor inspects this; per-partition WALs are not modelled
        #: (a real system shares one log across partitions anyway).
        self.wal = None
        #: Single source of truth for page→partition routing, shared with
        #: the cluster engine.
        self.router = HashShardRouter(num_partitions)
        base = capacity // num_partitions
        remainder = capacity % num_partitions
        self.partitions: list[BufferPoolManager] = []
        for index in range(num_partitions):
            partition_capacity = base + (1 if index < remainder else 0)
            self.partitions.append(manager_factory(partition_capacity, device))

    def partition_of(self, page: int) -> BufferPoolManager:
        """The sub-pool responsible for ``page`` (router-owned mapping)."""
        return self.partitions[self.router.shard_of(page)]

    # --------------------------------------------------------- client API

    def read_page(self, page: int) -> object | None:
        return self.partition_of(page).read_page(page)

    def write_page(self, page: int, payload: object | None = None) -> object:
        return self.partition_of(page).write_page(page, payload)

    def access(self, page: int, is_write: bool) -> object | None:
        return self.partition_of(page).access(page, is_write)

    def contains(self, page: int) -> bool:
        return self.partition_of(page).contains(page)

    def flush_all(self) -> int:
        return sum(partition.flush_all() for partition in self.partitions)

    def dirty_pages(self) -> list[int]:
        pages: list[int] = []
        for partition in self.partitions:
            pages.extend(partition.dirty_pages())
        return pages

    def resident_pages(self) -> list[int]:
        pages: list[int] = []
        for partition in self.partitions:
            pages.extend(partition.resident_pages())
        return pages

    # ------------------------------------------------------------- stats

    @property
    def stats(self) -> BufferStats:
        """Aggregated counters across all partitions."""
        total = BufferStats()
        for partition in self.partitions:
            total.merge(partition.stats)
        return total

    def occupancy(self) -> list[int]:
        """Used frames per partition (imbalance diagnostics)."""
        return [partition.pool.used_count for partition in self.partitions]

    def __repr__(self) -> str:
        return (
            f"PartitionedBufferPoolManager(partitions={len(self.partitions)}, "
            f"capacity={self.capacity})"
        )
