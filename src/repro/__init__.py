"""repro: ACE — asymmetry & concurrency-aware bufferpool management.

A from-scratch reproduction of *"ACEing the Bufferpool Management Paradigm
for Modern Storage Devices"* (Papon & Athanassoulis, ICDE 2023): a
PostgreSQL-style bufferpool, the paper's four replacement policies (Clock
Sweep, LRU, CFLRU, LRU-WSR), the ACE wrapper (batched concurrent
write-back, decoupled eviction, concurrent prefetching), a virtual-clock
SSD simulator with an FTL, pgbench-style synthetic mixes and TPC-C, and a
benchmark harness regenerating every table and figure of the paper's
evaluation.

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

This package re-exports the names the README, ``docs/`` and ``examples/``
import; everything else is imported from the subpackage that defines it.
"""

from repro.analysis import expected_hit_ratio
from repro.bufferpool import (
    BufferPoolManager,
    WriteAheadLog,
    recover,
    simulate_crash,
)
from repro.core import ACEBufferPoolManager, ACEConfig, AdaptiveACEBufferPoolManager
from repro.engine import run_trace, run_transactions, speedup
from repro.errors import (
    BufferPoolError,
    PageNotBufferedError,
    PoolExhaustedError,
    ReproError,
)
from repro.policies import LRUPolicy, LRUWSRPolicy, ReplacementPolicy, register_policy
from repro.prefetch import (
    CompositePrefetcher,
    HistoryPrefetcher,
    NPLPrefetcher,
    TaPPrefetcher,
)
from repro.storage import (
    PAPER_DEVICES,
    PCIE_SSD,
    SimulatedSSD,
    SmartMonitor,
    probe_device,
)
from repro.workloads import PAPER_WORKLOADS
from repro.workloads.tpcc import TPCCWorkload, TransactionType

__version__ = "1.0.0"

__all__ = [
    # core
    "ACEBufferPoolManager",
    "AdaptiveACEBufferPoolManager",
    "ACEConfig",
    # bufferpool
    "BufferPoolManager",
    "WriteAheadLog",
    "simulate_crash",
    "recover",
    # policies
    "ReplacementPolicy",
    "LRUPolicy",
    "LRUWSRPolicy",
    "register_policy",
    # prefetch
    "NPLPrefetcher",
    "TaPPrefetcher",
    "HistoryPrefetcher",
    "CompositePrefetcher",
    # storage
    "SimulatedSSD",
    "SmartMonitor",
    "PCIE_SSD",
    "PAPER_DEVICES",
    "probe_device",
    # engine
    "run_trace",
    "run_transactions",
    "speedup",
    # analysis
    "expected_hit_ratio",
    # workloads
    "PAPER_WORKLOADS",
    "TPCCWorkload",
    "TransactionType",
    # errors
    "ReproError",
    "BufferPoolError",
    "PoolExhaustedError",
    "PageNotBufferedError",
    "__version__",
]
