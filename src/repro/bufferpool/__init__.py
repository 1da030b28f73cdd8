"""PostgreSQL-style bufferpool substrate: frames, table, manager, WAL."""

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.descriptor import BufferDescriptor
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.pool import FramePool
from repro.bufferpool.stats import BufferStats
from repro.bufferpool.table import BufferTable
from repro.bufferpool.recovery import (
    CrashImage,
    DurabilityAudit,
    RecoveryReport,
    audit_committed,
    recover,
    simulate_crash,
)
from repro.bufferpool.repair import Scrubber, ScrubStats, repair_page
from repro.bufferpool.tag import BufferTag, ForkNumber
from repro.bufferpool.wal import (
    WAL_DEVICE_PROFILE,
    WalPageImage,
    WalRecord,
    WalRecordKind,
    WriteAheadLog,
)

__all__ = [
    "BufferPoolManager",
    "BufferDescriptor",
    "BufferStats",
    "BufferTable",
    "BufferTag",
    "ForkNumber",
    "FramePool",
    "WriteAheadLog",
    "WalPageImage",
    "WalRecord",
    "WalRecordKind",
    "WAL_DEVICE_PROFILE",
    "BackgroundWriter",
    "Checkpointer",
    "CrashImage",
    "DurabilityAudit",
    "RecoveryReport",
    "simulate_crash",
    "recover",
    "audit_committed",
    "Scrubber",
    "ScrubStats",
    "repair_page",
]
