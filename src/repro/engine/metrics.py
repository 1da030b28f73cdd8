"""Run metrics: what every experiment measures (paper §VI methodology).

For every experiment the paper records (i) workload latency, (ii)
transactions per second, (iii) buffer misses/hits, and (iv) total writes —
split into *logical* writes (pages the DBMS writes to the device) and
*physical* writes (NAND programs, including garbage collection, read from
SMART).  :class:`RunMetrics` packages exactly those, measured in virtual
time, plus the comparison helpers the figures need (speedup, deltas).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.bufferpool.stats import BufferStats
from repro.storage.device import DeviceStats
from repro.storage.ftl import FtlCounters

if TYPE_CHECKING:  # deferred to break the metrics <-> serving import cycle
    from repro.engine.serving.metrics import ServingMetrics

__all__ = ["RunMetrics", "speedup", "percent_delta"]


@dataclass
class RunMetrics:
    """Measurements from one workload execution."""

    label: str
    elapsed_us: float
    ops: int
    transactions: int = 0
    new_order_transactions: int = 0
    buffer: BufferStats = field(default_factory=BufferStats)
    device: DeviceStats = field(default_factory=DeviceStats)
    ftl: FtlCounters | None = None
    wal_pages_written: int = 0
    #: Device and CPU time in clock ticks (``to_us`` converts): work, so
    #: a merge sums them.  ``io_ticks`` is the data device's reads and
    #: writes, ``cpu_ticks`` the CPU the run charged (per request, per
    #: transaction).  Stalls (fault delays, retry backoff, a failed I/O),
    #: the log device's writes and idle time are in neither.
    io_ticks: int = 0
    cpu_ticks: int = 0
    #: Serving-layer accounting; ``None`` for runs without admission
    #: control (the historical default).
    serving: "ServingMetrics | None" = None

    # ----------------------------------------------------------- derived

    @property
    def runtime_s(self) -> float:
        return self.elapsed_us / 1e6

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.ops / (self.elapsed_us / 1e6)

    @property
    def tps(self) -> float:
        """Transactions per (virtual) second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.transactions / (self.elapsed_us / 1e6)

    @property
    def tpm(self) -> float:
        """Transactions per (virtual) minute."""
        return self.tps * 60.0

    @property
    def tpmc(self) -> float:
        """tpmC: NewOrder transactions per minute (TPC-C's metric)."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.new_order_transactions / (self.elapsed_us / 6e7)

    @property
    def miss_ratio(self) -> float:
        return self.buffer.miss_ratio

    @property
    def logical_writes(self) -> int:
        """Pages the DBMS wrote to the main device (the paper's l-writes)."""
        return self.device.writes

    @property
    def physical_writes(self) -> int:
        """NAND programs including GC (the paper's p-writes via SMART)."""
        if self.ftl is None:
            return self.device.writes
        return self.ftl.physical_writes

    @property
    def write_amplification(self) -> float:
        if self.ftl is None or self.logical_writes == 0:
            return 1.0
        return self.physical_writes / self.logical_writes

    @property
    def faults_injected(self) -> int:
        """Device faults injected during the run (zero without a plan)."""
        return self.device.faults_injected

    @property
    def io_retries(self) -> int:
        """Retries the buffer manager issued against faulted I/O."""
        return self.buffer.io_retries

    @property
    def degraded_writebacks(self) -> int:
        """Write-back batches that landed only a prefix (torn/mixed)."""
        return self.buffer.degraded_writebacks

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"{self.label}: {self.runtime_s:.3f}s, {self.ops} ops, "
            f"miss={self.miss_ratio:.3%}, lw={self.logical_writes}, "
            f"pw={self.physical_writes}"
        )
        if self.faults_injected or self.io_retries:
            text += (
                f", faults={self.faults_injected}, retries={self.io_retries}"
                f", degraded_wb={self.degraded_writebacks}"
            )
        return text


def speedup(baseline: RunMetrics, candidate: RunMetrics) -> float:
    """Runtime speedup of ``candidate`` over ``baseline`` (>1 is faster)."""
    if candidate.elapsed_us <= 0:
        raise ValueError("candidate elapsed time must be positive")
    return baseline.elapsed_us / candidate.elapsed_us


def percent_delta(baseline: float, candidate: float) -> float:
    """Percentage change from ``baseline`` to ``candidate``.

    Matches Table III's convention: positive means the candidate (ACE) did
    more (e.g. +0.1 % writes), negative means fewer (e.g. -0.001 % misses).
    """
    if baseline == 0:
        return 0.0
    return 100.0 * (candidate - baseline) / baseline
