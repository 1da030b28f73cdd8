"""Execution engine: drives traces and transaction streams through a manager.

The executor is the simulator's analogue of the paper's pgbench / TPC-C
clients hitting PostgreSQL: it replays page requests against a buffer
manager, charges a small CPU cost per request on the shared virtual clock
(so hit-heavy phases take nonzero time, as real query processing does), and
optionally schedules the background writer, checkpointer and scrubber on
virtual-time intervals.  All reported latencies are virtual — the
deterministic sum of modelled CPU and device time — which is what makes
baseline-vs-ACE comparisons exact rather than noisy.

Every request goes through :func:`replay`: the inlined loop for a bare
stack, ``manager.access`` per request otherwise.  It charges the stretch's
CPU as one tick count — the clock counts integer ticks
(:mod:`repro.storage.clock`), so that is the very clock request-by-request
charging reaches — and stops at a *deadline*: after the first request
whose end reaches a tick.  A caller that observes an index (trace end,
a transaction's commit, a commit point, a request of the serving layer,
a replica group's commit window) slices there; one that observes a time
(a background process due, a timed node fault) passes the tick; each
then charges, acts and replays on.  Per-request latencies are the CPU
charge plus the I/O ticks ``replay`` reports per stalled request.
:func:`run_trace`, :func:`run_transactions` and the serving layer share a
:class:`RunSession`: start marks, the background timers, metrics.
:class:`DurableRun` is the one WAL-stack run, background writer and
checkpointer included, that the chaos and crash-point harnesses drive.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import attrgetter, sub, truediv

from repro.bufferpool.background import (
    BackgroundWriter,
    Checkpointer,
    IdleScrubber,
)
from repro.bufferpool.manager import BufferPoolManager, _consume
from repro.bufferpool.wal import WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.engine.latency import LatencyRecorder
from repro.engine.metrics import RunMetrics
from repro.storage.clock import TICKS_PER_US, tick_at, to_ticks, to_us
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import PageRequest, Trace

__all__ = ["ExecutionOptions", "RunSession", "replay", "run_trace", "run_transactions"]

#: A transaction's request columns, built in C (no frame per request).
_page_of, _is_write_of = attrgetter("page"), attrgetter("is_write")


@dataclass(frozen=True)
class ExecutionOptions:
    """Knobs of the execution model.

    Parameters
    ----------
    cpu_us_per_op:
        CPU time charged per page request (query processing share).
    cpu_us_per_transaction:
        Extra CPU time charged per transaction (parse/plan/commit path).
        Both reach the clock as whole ticks (``to_ticks``), one request at
        a time or ``n`` at once; like the intervals they must be finite.
    bg_writer_interval_us, checkpoint_interval_us:
        Virtual-time periods for the background processes (when attached).
    commit_every_ops:
        When positive, flush the WAL every that-many trace requests —
        page-trace workloads then have commit points (durability
        boundaries) the way transaction streams do, which the chaos
        harness uses to define "committed updates".  ``0`` (the default)
        keeps the historical behaviour: no mid-trace WAL flushes.
    """

    cpu_us_per_op: float = 2.0
    cpu_us_per_transaction: float = 20.0
    bg_writer_interval_us: float = 50_000.0
    checkpoint_interval_us: float = 10e6
    commit_every_ops: int = 0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):  # a NaN would silence every deadline
                raise ValueError(f"{name} must be finite: {value}")
        if self.cpu_us_per_op < 0 or self.cpu_us_per_transaction < 0:
            raise ValueError("CPU costs cannot be negative")
        if self.bg_writer_interval_us <= 0 or self.checkpoint_interval_us <= 0:
            raise ValueError("background intervals must be positive")
        if self.commit_every_ops < 0:
            raise ValueError("commit_every_ops cannot be negative")


def _turbo_ready(manager: BufferPoolManager) -> bool:
    """Whether :func:`_replay_turbo` may stand in for ``manager.access``.

    Asked of capability, not of class: a bare device (``_plain_device``,
    which the partitioned facade does not have; the ``_turbo`` tuple
    exists), and the shared :meth:`BufferPoolManager._handle_miss` that the
    loop inlines (a subclass override is not).  Baseline, ACE and ACE with
    a Reader all qualify: the loop carries both hooks, and an observer
    hears the stretch at the next miss (see :func:`_replay_turbo`).  A WAL
    qualifies unless it has a ``flush_hook``: the loop appends the log only
    where it is observed (see :func:`_log_stretch`), but a crash schedule's
    hook observes every log page as it fills, so it steps through
    ``write_page``'s ``log_update``.
    """
    wal = manager.wal
    return (
        getattr(manager, "_plain_device", None) is not None
        and getattr(manager._handle_miss, "__func__", None)
        is BufferPoolManager._handle_miss
        and (wal is None or wal.flush_hook is None)
    )


def _log_stretch(
    wal: WriteAheadLog, payloads: list, frame_of, pages: Sequence[int],
    writes: Sequence[bool], start: int, stop: int, flushes: list[int] | tuple = (),
    device_payloads: dict | None = None,
) -> int:
    """Log the writes among requests ``start:stop`` of a stretch, with a
    flush before each request in ``flushes`` (which it empties); returns
    ``stop``, where the log now stands.

    :func:`_replay_turbo` logs only where the log is observed: before an
    ACE write-back, at a watch and when the stretch ends.  Its own
    write-backs' WAL-before-data flushes are only noted in between
    (``flushes``): nothing there reads the log, ``durable_lsn`` or the
    clock.  A written page's records are consecutive versions ending at
    its version now — its frame's payload, or the device's if a noted
    write-back took the page out of the pool — derived here, one
    ``append_deferred`` call, the log ``log_update`` per write and
    ``flush`` per write-back would have left.  A flush cuts before its
    request's own write, which follows the write-back.  The log pages it
    fills or flushes are timed and durable at once; their images wait for
    the stretch end's ``write_out``, since no one reads the log device
    before.
    """
    written = list(compress(pages[start:stop], writes[start:stop]))
    if flushes:
        # A page a write-back took out of the pool holds its last version
        # on the device: the device's versions, overwritten by the frames'.
        last = dict(zip(written, map(device_payloads.get, written)))
        resident = list(filter(frame_of.__contains__, last))
        last.update(zip(resident, map(
            payloads.__getitem__, map(frame_of.__getitem__, resident)
        )))
        versions = list(map(last.__getitem__, written))
        cuts = list(map(bisect_left, repeat(list(compress(
            count(start), writes[start:stop]
        ))), flushes))
        flushes.clear()
    elif written:
        versions = list(map(payloads.__getitem__, map(frame_of.__getitem__, written)))
        cuts = ()
    else:
        return stop
    if len(set(written)) < len(written):
        # A page written k times holds its k-th version: each write
        # steps back by the writes to its page after it, counted from
        # the end with one counter per page, in C.
        later = dict(zip(written, map(count, repeat(0))))
        versions = list(map(sub, versions, reversed(list(map(
            next, map(later.__getitem__, reversed(written))
        )))))
    wal.append_deferred(written, versions, cuts)
    return stop


def _cut(
    requests, done: int, now: int, until_ticks: int | None, op_ticks: int,
    wal: WriteAheadLog | None, write_at: list[int] | None, total: int,
):
    """``requests`` (the stretch from request ``done`` on, the clock at
    ``now``) cut where the clock must be read though no miss came: after
    the request whose end hits alone bring to the deadline (time advances
    ``op_ticks`` a hit), and after the write that fills a log page
    (``write_at`` indexes the writes), whose page write is then that
    request's, as under ``log_update``."""
    cut = total
    if until_ticks is not None and op_ticks:
        cut = done + max(1, -((now + done * op_ticks - until_ticks) // op_ticks))
    if wal is not None:
        index = bisect_left(write_at, done) + wal.room - 1
        if index < len(write_at):
            cut = min(cut, write_at[index] + 1)
    return islice(requests, cut - done)


def _replay_turbo(
    manager: BufferPoolManager, pages: Sequence[int], writes: Sequence[bool],
    op_ticks: int, until_ticks: int | None, stalls: list | None,
) -> int:
    """Replay the requests against a :func:`_turbo_ready` manager, fully inlined.

    Every step of the request path — probe, hit bookkeeping, victim
    write-back, eviction, device read, install, dirty marking — is
    straight-line code here (``_handle_miss`` and its helpers on a bare
    device, step for step; an eviction hands its frame straight to the
    install), and the counters (misses, evictions, device read/write
    counts and ticks, the batch histogram) are accumulated in locals and
    flushed once: all are integers, which commute, so the resulting
    metrics are byte-identical to the per-request replay.  Hits are the
    requests the iterator counted that did not miss.  The loop's own
    single-page I/O reaches the clock as ``op_ticks`` does, once per
    stretch and in each watch's reading: every other clock user in a
    stretch only adds or times an interval, so no reading moves.
    Every page is inside the probe space and the device (:func:`replay`
    checked the stretch), so the probe is one index and a miss tests no
    bound.  The policy is called through what ``policy.hooks()`` published
    (exact LRU: its ordered map's own methods, so a hit, an install and an
    eviction run no policy frame) and a dirty/clean transition through the
    manager's one bound callable; the spelling is the same for every
    policy.  The translation already vouches for membership here; only
    the reference arm's hits keep the policy's own "not tracked" check.

    ACE differs at one point, as in the manager: a dirty victim goes to
    ``manager.writer`` (one ``_write_back`` + ``device.write_batch`` call
    per batch, which do their own accounting) instead of the inlined
    single-page write.  The Writer's methods and ``n_w`` are looked up per
    batch — adaptive tuning and degraded batching change them mid-run.
    A WAL is appended where it is observed, never per write: before an
    ACE write-back (``_write_back`` flushes it), at each watch and once
    when the stretch ends, raising or not (:func:`_log_stretch`).  An
    inlined write-back's WAL-before-data flush, which ``_handle_miss``
    makes at once, only notes its request (``flushes``): nothing in the
    stretch reads the log, ``durable_lsn`` or the clock before the next
    watch or the stretch end, whose one call logs the writes since the
    last with a flush cut before each noted request, charging the flushed
    pages' ticks and advancing ``durable_lsn`` there.  The stretch end —
    the raising exit included — then stores every deferred page in one
    ``wal.write_out``, since no one reads the log device before then.

    A Reader is the miss routine's second hook, spelled as there: it hears
    ``on_miss`` first and, if it prefetches, is asked for a prefetch set at
    two exits — a miss into free frames, and the wide exchange
    (``manager._exchange_wide``: ``n_w`` written, ``n_e`` evicted in bulk)
    at a dirty victim.  Only a non-empty set leaves the inlined code for
    ``reader.fetch``; an empty one, at either exit, takes the classic read
    and install inline (the routine reads a batch of one there — the same
    state, counters and clock on a bare device).  Its methods and
    ``evictor.n_e`` are looked up per call, as the manager does.  The
    observer (the prefetcher's ``observe``) is not called per
    request: its state is read only at a miss, so the requests since the
    last miss are replayed into it, in order, just before the next
    ``on_miss`` and when the stretch ends — the same sequence of hook calls
    the per-request path makes, with no cost on a hit.

    Counter locals that must not count a failed request (device reads,
    write-backs) are bumped exactly where the per-request path bumps
    them, so an exception mid-trace flushes the same totals the
    per-request replay would have recorded.  The read/write request
    counts come from the ``writes`` column, the failing request included,
    as ``read_page``/``write_page`` count it before they miss.

    Under a watch (a deadline or a ``stalls`` list: ``timed``) the clock
    is read where it can have moved: after each miss, and where
    :func:`_cut` ends the stretch.  A hit never tests anything.
    """
    (
        free,
        slots,
        frame_of,
        array_slots,
        payloads,
        page_of,
        dirty_bits,
        prefetched_bits,
        device_payloads,
        read_ticks,
        write_ticks,
        ftl,
        clock,
        hit,
        select_victim,
        policy_remove,
        policy_insert,
        mark_dirty,
        mark_clean,
        reader,
    ) = manager._turbo
    writer = manager.writer
    wal = manager.wal
    stats = manager.stats
    device_stats = manager._plain_device.stats
    observe = manager._observer
    hooked = reader is not None or observe is not None
    prefetching = False
    if reader is not None:
        on_miss = reader.prefetcher.on_miss
        prefetching = manager.config.prefetch_enabled  # else it only trains
    # Requests the observer has heard, and those whose writes the log
    # holds; at a miss the missing request (``index``) is neither heard
    # nor applied yet.  ``flushes``: the requests since ``logged`` whose
    # write-back flushed the log first, logged with their writes.
    trained = 0
    logged = 0
    flushes = []
    timed = until_ticks is not None or stalls is not None
    requests = base = zip(count(), pages, writes)
    if timed:
        last = clock.ticks  # the clock where it was last read
        write_at = list(compress(count(), writes)) if wal is not None else None
        cutting = until_ticks is not None or wal is not None
        if cutting:
            requests = _cut(base, 0, last, until_ticks, op_ticks, wal, write_at,
                            len(pages))
    raised = True
    index = -1
    misses = 0
    prefetch_hits = 0
    evictions = 0
    clean_evictions = 0
    dirty_evictions = 0
    prefetch_unused = 0
    reads_done = 0
    writebacks_done = 0
    try:
        while True:
            for index, page, is_write in requests:
                frame_id = slots[page]
                if frame_id >= 0:
                    if prefetched_bits[frame_id]:
                        prefetched_bits[frame_id] = 0
                        prefetch_hits += 1
                    if is_write:
                        hit(page, True)
                    else:
                        hit(page)
                        continue
                else:
                    misses += 1
                    if hooked:
                        if observe is not None:  # everything up to this request
                            _consume(map(observe, pages[trained:index]))
                            trained = index
                        if reader is not None:
                            on_miss(page)
                            if prefetching and free:
                                chosen = reader.select_prefetch_set(
                                    page, min(manager.evictor.n_e, len(free)) - 1
                                )
                                if chosen:
                                    frame_id = reader.fetch(page, chosen)
                                    # The write post-work, repeated at every
                                    # miss exit: a shared exit would cost
                                    # every stack's miss one more test.
                                    if is_write:
                                        if not dirty_bits[frame_id]:
                                            dirty_bits[frame_id] = 1
                                            mark_dirty(page)
                                        current = payloads[frame_id]
                                        payloads[frame_id] = (
                                            current if isinstance(current, int) else 0
                                        ) + 1
                                    if timed:
                                        break
                                    continue
                    # Miss: evict (when full), read, install — the manager's
                    # ``_handle_miss`` on a bare device, step for step.
                    if not free:
                        victim = select_victim()
                        if victim is None:
                            raise manager._pool_exhausted(page)
                        victim_frame = slots[victim]
                        if not dirty_bits[victim_frame]:
                            clean_evictions += 1
                        elif writer is not None:
                            dirty_evictions += 1
                            if wal is not None:  # WAL-before-data, in _write_back
                                logged = _log_stretch(
                                    wal, payloads, frame_of, pages, writes, logged,
                                    index,
                                )
                            if prefetching:
                                # The wide exchange: n_w written, n_e dropped,
                                # the freed frames but one prefetched.
                                chosen = reader.select_prefetch_set(
                                    page, manager._exchange_wide(victim)
                                )
                                if chosen:
                                    frame_id = reader.fetch(page, chosen)
                                else:
                                    # Nothing to prefetch: the classic read
                                    # and install below, repeated here, as
                                    # the write post-work is.
                                    reads_done += 1
                                    try:
                                        payload = device_payloads[page]
                                    except KeyError:
                                        payload = None
                                    frame_id = free.pop()
                                    page_of[frame_id] = page
                                    payloads[frame_id] = payload
                                    frame_of[page] = frame_id
                                    if array_slots:
                                        slots[page] = frame_id
                                    policy_insert(page, None)
                                if is_write:
                                    if not dirty_bits[frame_id]:
                                        dirty_bits[frame_id] = 1
                                        mark_dirty(page)
                                    current = payloads[frame_id]
                                    payloads[frame_id] = (
                                        current if isinstance(current, int) else 0
                                    ) + 1
                                if timed:
                                    break
                                continue
                            writer.flush(writer.select_writeback_set(victim))
                            if dirty_bits[victim_frame]:
                                victim = manager._degraded_victim(victim)
                                victim_frame = slots[victim]
                        else:
                            dirty_evictions += 1
                            if wal is not None:  # WAL-before-data, as in _handle_miss
                                flushes.append(index)
                            device_payloads[victim] = payloads[victim_frame]
                            if ftl is not None:
                                ftl.write(victim)
                            dirty_bits[victim_frame] = 0
                            mark_clean(victim)
                            writebacks_done += 1
                        if prefetched_bits[victim_frame]:
                            prefetch_unused += 1
                            prefetched_bits[victim_frame] = 0
                        evictions += 1
                        del frame_of[victim]
                        if array_slots:
                            slots[victim] = -1
                        policy_remove(victim)
                        frame_id = victim_frame
                    else:
                        frame_id = free.pop()
                    reads_done += 1
                    try:
                        payload = device_payloads[page]
                    except KeyError:
                        payload = None
                    page_of[frame_id] = page
                    payloads[frame_id] = payload
                    frame_of[page] = frame_id
                    if array_slots:
                        slots[page] = frame_id
                    policy_insert(page, None)
                    if is_write:
                        if not dirty_bits[frame_id]:
                            dirty_bits[frame_id] = 1
                            mark_dirty(page)
                        current = payloads[frame_id]
                        payloads[frame_id] = (
                            current if isinstance(current, int) else 0
                        ) + 1
                    if timed:
                        break
                    continue
                # A write hit: dirty marking + version bump.
                if not dirty_bits[frame_id]:
                    dirty_bits[frame_id] = 1
                    mark_dirty(page)
                current = payloads[frame_id]
                payloads[frame_id] = (current if isinstance(current, int) else 0) + 1
            else:
                if not timed:
                    break
            # A watched stretch reads the clock here: after a miss, or where
            # it was cut.  The log first: a page it fills is this request's.
            done = index + 1
            if wal is not None:
                logged = _log_stretch(
                    wal, payloads, frame_of, pages, writes, logged, done, flushes,
                    device_payloads,
                )
            now = clock.ticks + reads_done * read_ticks + writebacks_done * write_ticks
            if stalls is not None and now != last:
                stalls.append((done - 1, now - last))
            last = now
            if done == len(pages) or (
                until_ticks is not None and now + done * op_ticks >= until_ticks
            ):
                break
            if cutting:
                requests = _cut(base, done, now, until_ticks, op_ticks, wal,
                                write_at, len(pages))
        raised = False
    finally:
        done = index + 1
        # A request that raised was counted but never observed or applied.
        if observe is not None:
            _consume(map(observe, pages[trained : done - raised]))
        if wal is not None:
            _log_stretch(
                wal, payloads, frame_of, pages, writes, logged, done - raised,
                flushes, device_payloads,
            )
            if wal.unwritten:  # the log is observable again: store its pages
                wal.write_out()
        # One flush of the commuting integer counters (identical totals to
        # the per-request replay, including on mid-trace exceptions — see
        # the docstring).
        write_requests = sum(writes[:done])
        stats.hits += done - misses
        stats.misses += misses
        stats.read_requests += done - write_requests
        stats.write_requests += write_requests
        if prefetch_hits:
            stats.prefetch_hits += prefetch_hits
        if misses:  # the rest is counted at misses only
            stats.evictions += evictions
            stats.clean_evictions += clean_evictions
            stats.dirty_evictions += dirty_evictions
            stats.prefetch_unused += prefetch_unused
            stats.writebacks += writebacks_done
            stats.writeback_batches += writebacks_done
            device_stats.reads += reads_done
            device_stats.read_batches += reads_done
            device_stats.read_ticks += reads_done * read_ticks
            if reads_done and device_stats.largest_read_batch < 1:
                device_stats.largest_read_batch = 1
            device_stats.writes += writebacks_done
            device_stats.write_batches += writebacks_done
            device_stats.write_ticks += writebacks_done * write_ticks
            if writebacks_done:
                histogram = device_stats.write_batch_size_histogram
                histogram[1] = histogram.get(1, 0) + writebacks_done
                if device_stats.largest_write_batch < 1:
                    device_stats.largest_write_batch = 1
            clock.ticks += reads_done * read_ticks + writebacks_done * write_ticks
        clock.ticks += done * op_ticks
    return done


def replay(
    manager: BufferPoolManager,
    pages: Sequence[int],
    writes: Sequence[bool],
    op_ticks: int = 0,
    until_ticks: int | None = None,
    stalls: list[tuple[int, int]] | None = None,
) -> int:
    """Replay a stretch of requests; returns how many ran.

    The one request loop: every stretch of every run comes through here.
    Each request costs ``op_ticks`` of CPU, charged to the clock once, as
    the stretch ends (a request that raises included).  With
    ``until_ticks`` the stretch stops after the first request whose end —
    the clock plus the CPU of the requests so far — reaches that tick; at
    least one request runs.  ``stalls`` receives ``(index, ticks)`` for
    every request whose I/O moved the clock, in order.  The state left
    behind is the per-request replay's to the byte, whichever of the two
    arms runs: the fully inlined loop for an unsanitised
    :func:`_turbo_ready` manager, and the reference arm —
    ``manager.access`` request by request, the clock read after each — for
    everything else: a wrapped device, a WAL with a ``flush_hook``, a
    subclass's own ``_handle_miss``, a sanitised manager (instance-attribute
    op wrappers that must see every request) and the partitioned facade.

    The inlined loop trusts every page it is given: the stretch's range is
    checked here, once, in C — inside the translation's probe space and
    the device.  A stretch with a page outside is handed off at it: the
    inlined loop replays the requests before it, and unless those already
    reached the deadline the reference arm replays the rest, from that page
    on (one outside the device raises there, after the eviction, as the
    miss routine does).
    """
    start = 0
    if manager.sanitizer is None and _turbo_ready(manager):
        bound = min(manager._probe_space, manager._plain_device._page_limit)
        if not pages or 0 <= min(pages) <= max(pages) < bound:
            return _replay_turbo(manager, pages, writes, op_ticks, until_ticks, stalls)
        start = next(
            index for index, page in enumerate(pages) if not 0 <= page < bound
        )
        if start:
            done = _replay_turbo(
                manager, pages[:start], writes[:start], op_ticks, until_ticks, stalls
            )
            # The prefix stops early only at the deadline, and then the
            # clock, its CPU charged, has reached it: request ``start``
            # must not run.
            if until_ticks is not None and manager.device.clock.ticks >= until_ticks:
                return done
            pages, writes = pages[start:], writes[start:]
    clock = manager.device.clock
    access = manager.access
    done = 0
    try:
        for page, is_write in zip(pages, writes):
            mark = clock.ticks
            done += 1
            access(page, is_write)
            if stalls is not None and clock.ticks != mark:
                stalls.append((start + done - 1, clock.ticks - mark))
            if until_ticks is not None and clock.ticks + done * op_ticks >= until_ticks:
                break
    finally:
        clock.ticks += done * op_ticks
    return start + done


class RunSession:
    """One measured run: its start marks, its background tick, its metrics.

    ``run_trace``, ``run_transactions`` and the serving layer's admission
    loop each open one when measurement starts, call
    :meth:`tick` wherever their loop lets the background processes see the
    clock (``run_trace`` also ends a stretch at :meth:`due_ticks`), and
    end with :meth:`finish` — the one place a run's :class:`RunMetrics` is
    assembled.
    """

    def __init__(
        self,
        manager: BufferPoolManager,
        options: ExecutionOptions | None = None,
        bg_writer: BackgroundWriter | None = None,
        checkpointer: Checkpointer | None = None,
        scrubber: IdleScrubber | None = None,
    ) -> None:
        device = manager.device
        self.manager = manager
        self.options = options if options is not None else ExecutionOptions()
        self.clock = device.clock
        self.start_us = self.clock.now_us
        self._start_ticks = self.clock.ticks
        self._start_io = device.stats.read_ticks + device.stats.write_ticks
        self._processes = (bg_writer, checkpointer, scrubber)
        self._next_bg_writer_us = self.start_us + self.options.bg_writer_interval_us
        self._due = self._first_due()

    def _first_due(self) -> int | None:
        """The first tick at which one of the timers fires."""
        bg_writer, checkpointer, scrubber = self._processes
        dues = [process.due_ticks() for process in (checkpointer, scrubber)
                if process is not None]
        if bg_writer is not None:
            dues.append(tick_at(self._next_bg_writer_us))
        return min(dues, default=None)

    def due_ticks(self) -> int | None:
        """The first tick at which :meth:`tick` will run a background
        process (``None``: none is attached): where a stretch must stop."""
        return self._due

    def tick(self) -> None:
        """Let the background processes act on the time that has passed."""
        due = self._due
        if due is None or self.clock.ticks < due:
            return
        bg_writer, checkpointer, scrubber = self._processes
        if bg_writer is not None and self.clock.now_us >= self._next_bg_writer_us:
            bg_writer.run_round()
            self._next_bg_writer_us = (
                self.clock.now_us + self.options.bg_writer_interval_us
            )
        if checkpointer is not None:
            checkpointer.maybe_checkpoint()
        if scrubber is not None:
            scrubber.maybe_scrub()
        self._due = self._first_due()

    def elapsed_us(self) -> float:
        """Virtual time since the start mark: the sum of the advances since."""
        return to_us(self.clock.ticks - self._start_ticks)

    def finish(self, label: str, ops: int, cpu_ticks: int, **counts) -> RunMetrics:
        """The run's metrics: elapsed since the start marks, counters now,
        and ``cpu_ticks``, the CPU the caller charged."""
        manager, device = self.manager, self.manager.device
        elapsed = self.clock.ticks - self._start_ticks
        io = device.stats.read_ticks + device.stats.write_ticks - self._start_io
        return RunMetrics(
            label=label,
            elapsed_us=to_us(elapsed),
            ops=ops,
            buffer=manager.stats.copy(),
            device=device.stats.copy(),
            ftl=device.ftl.counters.copy() if device.ftl else None,
            wal_pages_written=manager.wal.pages_written if manager.wal else 0,
            io_ticks=io,
            cpu_ticks=cpu_ticks,
            **counts,
        )


def _serving_layer(manager: BufferPoolManager, serving):
    """``serving`` as a layer bound to ``manager`` (config or prebuilt)."""
    from repro.engine.serving.layer import ServingLayer

    layer = (
        serving
        if isinstance(serving, ServingLayer)
        else ServingLayer(manager, serving)
    )
    if layer.manager is not manager:
        raise ValueError("serving layer is bound to a different manager")
    return layer


def run_trace(
    manager: BufferPoolManager,
    trace: Trace,
    options: ExecutionOptions | None = None,
    bg_writer: BackgroundWriter | None = None,
    checkpointer: Checkpointer | None = None,
    label: str | None = None,
    latencies: LatencyRecorder | None = None,
    serving=None,
    scrubber=None,
) -> RunMetrics:
    """Replay ``trace`` against ``manager`` and collect metrics.

    Pass a :class:`LatencyRecorder` as ``latencies`` to additionally
    capture the per-request latency distribution (mean/p50/p95/p99).

    ``scrubber`` attaches an
    :class:`~repro.bufferpool.background.IdleScrubber`: like the
    background writer, it runs on its own virtual-time interval and heals
    latent silent corruption between requests.

    ``serving`` enables the overload-resilient admission layer: pass a
    :class:`~repro.engine.serving.ServingConfig` (or a prebuilt
    :class:`~repro.engine.serving.ServingLayer` bound to ``manager``) and
    the trace is served through a bounded admission queue with deadlines,
    load shedding, requeue backoff, and an optional circuit breaker; the
    returned metrics carry a ``serving`` field.  ``None`` (the default)
    keeps the historical direct-replay path, at zero overhead.
    """
    session = RunSession(manager, options, bg_writer, checkpointer, scrubber)
    if serving is not None:
        return _serving_layer(manager, serving).admit_trace(
            session, trace, label, latencies
        )
    clock = session.clock
    op_ticks = to_ticks(session.options.cpu_us_per_op)
    wal = manager.wal
    commit_every = session.options.commit_every_ops if wal is not None else 0
    pages, writes, total = trace.pages, trace.writes, len(trace)
    stalls = None if latencies is None else []
    position = 0
    while position < total:
        # To the next commit point, or where a background process is due.
        stop = total
        if commit_every:
            stop = min(total, (position // commit_every + 1) * commit_every)
        ran = replay(
            manager, pages[position:stop], writes[position:stop], op_ticks,
            session.due_ticks(), stalls,
        )
        position += ran
        mark = clock.ticks
        if commit_every and position % commit_every == 0:
            wal.flush()  # commit point: updates so far are durable
        if stalls is not None:
            # A request's latency: its CPU, its I/O, and a commit it ends.
            spent = [op_ticks] * ran
            for index, ticks in stalls:
                spent[index] += ticks
            spent[-1] += clock.ticks - mark
            stalls.clear()
            latencies.extend(map(truediv, spent, repeat(TICKS_PER_US)))  # to_us
        session.tick()
    return session.finish(
        label if label is not None else f"{manager.variant}/{trace.name}",
        ops=total,
        cpu_ticks=op_ticks * total,
    )


def run_transactions(
    manager: BufferPoolManager,
    transactions: Iterable[tuple[TransactionType, list[PageRequest]]],
    options: ExecutionOptions | None = None,
    bg_writer: BackgroundWriter | None = None,
    checkpointer: Checkpointer | None = None,
    label: str = "transactions",
) -> RunMetrics:
    """Run a (type, requests) transaction stream; tracks tpmC.

    Transactions execute back to back on the virtual clock (the paper's
    gains are I/O-path effects, so a single-stream model preserves relative
    behaviour; see DESIGN.md).
    """
    session = RunSession(manager, options, bg_writer, checkpointer)
    clock = session.clock
    op_ticks = to_ticks(session.options.cpu_us_per_op)
    transaction_ticks = to_ticks(session.options.cpu_us_per_transaction)
    wal = manager.wal
    ops = 0
    transaction_count = 0
    new_order_count = 0
    for kind, requests in transactions:
        # A transaction is observed at its end (commit, background tick):
        # one stretch, then the transaction's own CPU.
        ops += replay(
            manager,
            list(map(_page_of, requests)),
            list(map(_is_write_of, requests)),
            op_ticks,
        )
        clock.ticks += transaction_ticks
        if wal is not None:
            wal.flush()  # commit: WAL must be durable
        transaction_count += 1
        if kind is TransactionType.NEW_ORDER:
            new_order_count += 1
        session.tick()
    return session.finish(
        label,
        ops=ops,
        cpu_ticks=op_ticks * ops + transaction_ticks * transaction_count,
        transactions=transaction_count,
        new_order_transactions=new_order_count,
    )


class DurableRun:
    """The WAL stack run ``chaos`` and ``crashpoints`` share: a commit
    point every ``commit_every`` requests, 2 µs of CPU per request, a
    background writer every 20 ms (16 pages a round) and a checkpoint
    every 100 ms, both writing back ``n_w`` pages a batch on ACE, one on
    baseline.  They outlive a run that died, for the harness's audit."""

    def __init__(self, manager: BufferPoolManager, commit_every: int) -> None:
        self.manager = manager
        self.options = ExecutionOptions(
            cpu_us_per_op=2.0,
            bg_writer_interval_us=20_000.0,
            checkpoint_interval_us=100_000.0,
            commit_every_ops=commit_every,
        )
        batch_size = (
            manager.config.n_w
            if isinstance(manager, ACEBufferPoolManager)
            else 1
        )
        self.bg_writer = BackgroundWriter(
            manager, pages_per_round=16, batch_size=batch_size
        )
        self.checkpointer = Checkpointer(
            manager,
            interval_us=self.options.checkpoint_interval_us,
            batch_size=batch_size,
        )

    def run(self, trace: Trace, label: str, **kwargs) -> RunMetrics:
        """:func:`run_trace` with this run's options and processes
        (``serving`` and ``scrubber`` pass through)."""
        return run_trace(
            self.manager, trace, options=self.options,
            bg_writer=self.bg_writer, checkpointer=self.checkpointer,
            label=label, **kwargs,
        )
