"""PostgreSQL-style bufferpool substrate: frames, table, manager, WAL."""

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import recover, simulate_crash
from repro.bufferpool.wal import WriteAheadLog

__all__ = [
    "BufferPoolManager",
    "WriteAheadLog",
    "simulate_crash",
    "recover",
]
