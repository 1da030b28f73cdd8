"""repro: ACE — asymmetry & concurrency-aware bufferpool management.

A from-scratch reproduction of *"ACEing the Bufferpool Management Paradigm
for Modern Storage Devices"* (Papon & Athanassoulis, ICDE 2023): a
PostgreSQL-style bufferpool, four replacement policies (Clock Sweep, LRU,
CFLRU, LRU-WSR) plus extras, the ACE wrapper (batched concurrent
write-back, decoupled eviction, concurrent prefetching), a virtual-clock
SSD simulator with an FTL, pgbench/TPC-C workloads, and a benchmark harness
regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import (
        ACEBufferPoolManager, ACEConfig, LRUPolicy, SimulatedSSD, PCIE_SSD,
    )

    device = SimulatedSSD(PCIE_SSD, num_pages=10_000)
    device.format_pages(range(10_000))
    manager = ACEBufferPoolManager(
        capacity=600, policy=LRUPolicy(), device=device,
        config=ACEConfig.for_device(PCIE_SSD, prefetch_enabled=True),
    )
    manager.write_page(42)
    manager.read_page(42)
"""

from repro.analysis import expected_hit_ratio, ideal_speedup, lru_hit_ratio
from repro.bufferpool import (
    BackgroundWriter,
    BufferPoolManager,
    BufferStats,
    BufferTag,
    Checkpointer,
    CrashImage,
    RecoveryReport,
    WriteAheadLog,
    recover,
    simulate_crash,
)
from repro.cluster import (
    ClusterConfig,
    ClusterMetrics,
    HashShardRouter,
    MappedShardRouter,
    PartitionedBufferPoolManager,
    ShardRouter,
    run_cluster,
    run_cluster_transactions,
)
from repro.core import ACEBufferPoolManager, ACEConfig, AdaptiveACEBufferPoolManager
from repro.engine import (
    BreakerConfig,
    Database,
    ExecutionOptions,
    RunMetrics,
    ServingConfig,
    ServingLayer,
    ServingMetrics,
    run_trace,
    run_transactions,
    speedup,
)
from repro.errors import (
    BufferPoolError,
    IOFaultError,
    PageNotBufferedError,
    PoolExhaustedError,
    ReproError,
    RetriesExhaustedError,
    TornWriteError,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultyDevice,
    RetryPolicy,
)
from repro.engine.latency import LatencyRecorder
from repro.engine.multiclient import interleave_traces, interleave_transactions
from repro.policies import (
    ARCPolicy,
    CFLRUPolicy,
    ClockSweepPolicy,
    FIFOPolicy,
    FORPolicy,
    LFUPolicy,
    LRUPolicy,
    LRUWSRPolicy,
    ReplacementPolicy,
    SecondChancePolicy,
    TwoQPolicy,
    make_policy,
    register_policy,
)
from repro.prefetch import (
    CompositePrefetcher,
    HistoryPrefetcher,
    NPLPrefetcher,
    OPLPrefetcher,
    Prefetcher,
    TaPPrefetcher,
)
from repro.storage import (
    OPTANE_SSD,
    PAPER_DEVICES,
    PCIE_SSD,
    SATA_SSD,
    VIRTUAL_SSD,
    DeviceProfile,
    FlashTranslationLayer,
    LatencyModel,
    SimulatedSSD,
    SmartMonitor,
    VirtualClock,
    emulated_profile,
    probe_device,
)
from repro.workloads import (
    MS,
    MU,
    PAPER_WORKLOADS,
    RIS,
    WIS,
    PgbenchWorkload,
    Trace,
    WorkloadSpec,
    generate_trace,
    rw_ratio_spec,
)
from repro.workloads.tpcc import TPCCWorkload, TransactionType
from repro.workloads.traceio import load_trace, save_trace
from repro.workloads.ycsb import YCSB_WORKLOADS, generate_ycsb_trace

__version__ = "1.0.0"

__all__ = [
    # core
    "ACEBufferPoolManager",
    "AdaptiveACEBufferPoolManager",
    "ACEConfig",
    # bufferpool
    "BufferPoolManager",
    "PartitionedBufferPoolManager",
    "BufferStats",
    "BufferTag",
    "WriteAheadLog",
    "BackgroundWriter",
    "Checkpointer",
    "CrashImage",
    "RecoveryReport",
    "simulate_crash",
    "recover",
    # cluster
    "ClusterConfig",
    "ClusterMetrics",
    "ShardRouter",
    "HashShardRouter",
    "MappedShardRouter",
    "run_cluster",
    "run_cluster_transactions",
    # policies
    "ReplacementPolicy",
    "LRUPolicy",
    "ClockSweepPolicy",
    "CFLRUPolicy",
    "LRUWSRPolicy",
    "FIFOPolicy",
    "SecondChancePolicy",
    "LFUPolicy",
    "FORPolicy",
    "TwoQPolicy",
    "ARCPolicy",
    "make_policy",
    "register_policy",
    # prefetch
    "Prefetcher",
    "OPLPrefetcher",
    "NPLPrefetcher",
    "TaPPrefetcher",
    "HistoryPrefetcher",
    "CompositePrefetcher",
    # storage
    "VirtualClock",
    "SimulatedSSD",
    "LatencyModel",
    "FlashTranslationLayer",
    "SmartMonitor",
    "DeviceProfile",
    "OPTANE_SSD",
    "PCIE_SSD",
    "SATA_SSD",
    "VIRTUAL_SSD",
    "PAPER_DEVICES",
    "emulated_profile",
    "probe_device",
    # engine
    "Database",
    "ExecutionOptions",
    "RunMetrics",
    "run_trace",
    "run_transactions",
    "speedup",
    "interleave_traces",
    "interleave_transactions",
    "LatencyRecorder",
    # serving
    "ServingConfig",
    "ServingLayer",
    "ServingMetrics",
    "BreakerConfig",
    # analysis
    "ideal_speedup",
    "lru_hit_ratio",
    "expected_hit_ratio",
    # workloads
    "save_trace",
    "load_trace",
    "YCSB_WORKLOADS",
    "generate_ycsb_trace",
    "Trace",
    "WorkloadSpec",
    "MS",
    "WIS",
    "RIS",
    "MU",
    "PAPER_WORKLOADS",
    "generate_trace",
    "rw_ratio_spec",
    "PgbenchWorkload",
    "TPCCWorkload",
    "TransactionType",
    # faults
    "FaultPlan",
    "FaultKind",
    "FaultInjector",
    "FaultyDevice",
    "RetryPolicy",
    # errors
    "ReproError",
    "BufferPoolError",
    "PoolExhaustedError",
    "PageNotBufferedError",
    "IOFaultError",
    "TornWriteError",
    "RetriesExhaustedError",
    "__version__",
]
