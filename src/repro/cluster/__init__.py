"""Sharded cluster engine: N shard nodes, parallel replay, exact merges.

The single-process perf trajectory (hot path → virtual-order engine →
array translation) tops out around one core's worth of accesses per
second.  The next epoch comes from *sharding*: split the page space
across N independent shard nodes — each a complete bufferpool + device
stack riding the same turbo replay path — replay each shard's subtrace
in its own worker process, and merge the per-shard metrics
deterministically.  Four sub-modules:

* :mod:`repro.cluster.router` — the page→shard contract (hash and
  mapped routing, trace splitting, epoch-stamped failover remaps);
* :mod:`repro.cluster.placement` — shard assignment as graph
  partitioning (co-access graphs, hash vs locality-optimized placement,
  cut/imbalance scoring);
* :mod:`repro.cluster.engine` — shard stacks, the parallel executor and
  the deterministic metric merge;
* :mod:`repro.cluster.replication` — replica groups: synchronous WAL
  shipping, deterministic failover/promotion, anti-entropy rejoin and
  the cluster-wide exact durability audit;
* :mod:`repro.cluster.partitioned` — the in-process
  :class:`PartitionedBufferPoolManager`.
"""

from repro.cluster.engine import (
    ClusterConfig,
    ClusterMetrics,
    ShardJob,
    ShardResult,
    build_router,
    build_shard_stack,
    merge_shard_metrics,
    run_cluster,
)
from repro.cluster.partitioned import PartitionedBufferPoolManager
from repro.cluster.placement import (
    CoAccessGraph,
    coaccess_from_trace,
    cut_weight,
    hash_placement,
    imbalance,
    locality_placement,
    placement_report,
)
from repro.cluster.replication import (
    FailoverEvent,
    ReplicatedShardResult,
    ReplicationSummary,
    ShardReplicationReport,
    run_replicated_cluster,
)
from repro.cluster.router import (
    HashShardRouter,
    MappedShardRouter,
    ShardRouter,
    StaleRouteError,
)

__all__ = [
    # engine
    "ClusterConfig",
    "ClusterMetrics",
    "ShardJob",
    "ShardResult",
    "build_router",
    "build_shard_stack",
    "merge_shard_metrics",
    "run_cluster",
    # replication
    "FailoverEvent",
    "ReplicatedShardResult",
    "ReplicationSummary",
    "ShardReplicationReport",
    "run_replicated_cluster",
    # partitioned
    "PartitionedBufferPoolManager",
    # placement
    "CoAccessGraph",
    "coaccess_from_trace",
    "cut_weight",
    "hash_placement",
    "imbalance",
    "locality_placement",
    "placement_report",
    # router
    "HashShardRouter",
    "MappedShardRouter",
    "ShardRouter",
    "StaleRouteError",
]
