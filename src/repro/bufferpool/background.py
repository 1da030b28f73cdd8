"""Background flush processes: the background writer and the checkpointer.

PostgreSQL flushes dirty pages with two background processes (paper §V):
the **background writer** continuously trickles dirty pages out so foreground
evictions find clean victims, and the **checkpointer** periodically writes a
checkpoint record to the WAL and flushes *all* dirty pages.

The paper modifies both so that under ACE "they always perform ``n_w``
writes concurrently".  Both classes therefore take a ``batch_size``: 1
reproduces the stock one-I/O-at-a-time behaviour, ``n_w`` the ACE-augmented
one.  The execution engine invokes :meth:`BackgroundWriter.run_round` /
:meth:`Checkpointer.maybe_checkpoint` on a virtual-time schedule, and asks
each timer's ``due_ticks`` where the next stretch of requests must stop.

A third maintenance process rides the same schedule: :class:`IdleScrubber`
binds a :class:`~repro.bufferpool.repair.Scrubber` to a manager so latent
silent corruption (see :mod:`repro.faults`) is detected and healed from
WAL redo images during idle time, before a client read trips over it.
"""

from __future__ import annotations

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.repair import Scrubber
from repro.storage.clock import first_tick

__all__ = ["BackgroundWriter", "Checkpointer", "IdleScrubber"]


class BackgroundWriter:
    """Flushes up to ``pages_per_round`` LRU-most dirty pages per round."""

    def __init__(
        self,
        manager: BufferPoolManager,
        pages_per_round: int = 16,
        batch_size: int = 1,
    ) -> None:
        if pages_per_round < 1:
            raise ValueError("pages_per_round must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.manager = manager
        self.pages_per_round = pages_per_round
        self.batch_size = batch_size
        self.rounds = 0
        self.pages_flushed = 0

    def run_round(self) -> int:
        """Flush the next dirty pages in the policy's virtual order.

        Returns the number of pages written.  With ``batch_size == 1`` each
        page is a separate device write (stock PostgreSQL); with
        ``batch_size == n_w`` writes are issued in concurrent batches (ACE).
        """
        self.rounds += 1
        candidates = self.manager.policy.next_dirty(self.pages_per_round)
        flushed = 0
        for start in range(0, len(candidates), self.batch_size):
            chunk = candidates[start : start + self.batch_size]
            flushed += self.manager._write_back(chunk, background=True)
        self.pages_flushed += flushed
        return flushed


class IdleScrubber:
    """Interval-driven corruption scrubbing bound to a running manager.

    Wraps a :class:`~repro.bufferpool.repair.Scrubber` with the manager's
    own dirty-page testimony (a dirty page's device image is legitimately
    stale, so the redo cross-check must skip it) and the virtual-time
    interval contract the executor drives the other background processes
    with.  Requires a WAL-attached manager: repair without redo images
    would be guesswork.
    """

    def __init__(
        self,
        manager: BufferPoolManager,
        interval_us: float = 50_000.0,
        pages_per_round: int = 64,
    ) -> None:
        if manager.wal is None:
            raise ValueError("scrubbing needs a WAL-attached manager")
        if interval_us <= 0:
            raise ValueError("scrub interval must be positive")
        self.manager = manager
        self.interval_us = interval_us
        self.scrubber = Scrubber(
            manager.device,
            manager.wal,
            pages_per_round=pages_per_round,
            is_dirty=manager.is_dirty,
        )
        self._last_round_us = manager.device.clock.now_us

    @property
    def stats(self):
        return self.scrubber.stats

    def due_ticks(self) -> int:
        """The first tick at which :meth:`maybe_scrub` scrubs."""
        last, interval = self._last_round_us, self.interval_us
        return first_tick(lambda now_us: now_us - last >= interval, last + interval)

    def maybe_scrub(self) -> bool:
        """Run one scrub round if the interval elapsed."""
        now = self.manager.device.clock.now_us
        if now - self._last_round_us < self.interval_us:
            return False
        self.scrubber.run_round()
        self._last_round_us = self.manager.device.clock.now_us
        return True


class Checkpointer:
    """Periodically WAL-logs a checkpoint and flushes all dirty pages."""

    def __init__(
        self,
        manager: BufferPoolManager,
        interval_us: float = 60e6,
        batch_size: int = 1,
    ) -> None:
        if interval_us <= 0:
            raise ValueError("checkpoint interval must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.manager = manager
        self.interval_us = interval_us
        self.batch_size = batch_size
        self._last_checkpoint_us = manager.device.clock.now_us
        self.checkpoints_taken = 0
        self.pages_flushed = 0
        #: Checkpoints whose record was withheld because degraded
        #: write-backs left dirty pages behind (see :meth:`checkpoint`).
        self.checkpoints_skipped = 0

    def due_ticks(self) -> int:
        """The first tick at which :meth:`maybe_checkpoint` checkpoints."""
        last, interval = self._last_checkpoint_us, self.interval_us
        return first_tick(lambda now_us: now_us - last >= interval, last + interval)

    def maybe_checkpoint(self) -> bool:
        """Run a checkpoint if the interval elapsed; returns whether it did."""
        now = self.manager.device.clock.now_us
        if now - self._last_checkpoint_us < self.interval_us:
            return False
        self.checkpoint()
        return True

    def checkpoint(self) -> int:
        """Flush every dirty page and log a checkpoint record.

        The record truncates the recovery window, so it is a *promise* that
        every earlier update has reached the data pages.  If fault-injected
        write-backs degraded and left pages dirty, the record is withheld —
        recovery then replays from the previous checkpoint, which is slower
        but never loses updates.
        """
        manager = self.manager
        dirty = manager.dirty_pages()
        flushed = 0
        for start in range(0, len(dirty), self.batch_size):
            chunk = dirty[start : start + self.batch_size]
            flushed += manager._write_back(chunk, background=True)
        if manager.wal is not None:
            if manager._dirty_set:
                self.checkpoints_skipped += 1
            else:
                manager.wal.checkpoint_record()
        self.checkpoints_taken += 1
        self.pages_flushed += flushed
        self._last_checkpoint_us = manager.device.clock.now_us
        return flushed
