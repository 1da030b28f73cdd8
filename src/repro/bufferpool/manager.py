"""The baseline buffer manager: classic one-page-at-a-time replacement.

This is the state-of-the-art design the paper argues against (Section I,
"The Challenge"): when a requested page misses and the pool is full, one
victim is chosen by the replacement policy; if it is dirty it is written
back — **one I/O at a time** — then evicted, and the requested page is read.
One read is thereby "exchanged" for one write, irrespective of the device's
asymmetry and concurrency.

:class:`~repro.core.ace.ACEBufferPoolManager` subclasses this class and
changes one thing on the miss path — a dirty victim takes the next ``n_w``
dirty pages with it in one batch — mirroring how the paper implements ACE
as a wrapper inside PostgreSQL's ``bufmgr.c`` without touching the
replacement policies themselves.  That one thing is a hook
(``self.writer``) in the miss routine here, not a second routine: on a
free frame or a clean victim Algorithm 1 *is* the classic path, so both
stacks run the same code and this manager is the degenerate case
"no batch" (the single-page write, inlined).  ACE's Reader (prefetching) is
the routine's second hook, ``self.reader``, not a second routine either.

The per-request path is the hottest code in the simulator.  Translation is
a single probe of the table's ``_slots`` vector (a flat array under the
array backend, a ``__missing__``-shimmed dict otherwise — see
:mod:`repro.bufferpool.table`), and the per-frame state bits are the
pool's four columns, the only record of them.  All of these
containers live for the manager's lifetime, so ``__init__`` binds direct
aliases once.  Each request performs exactly one translation probe: the
miss path returns the frame id it installed rather than forcing a second
lookup.  The miss routine is written once, over the retry-capable
helpers; on a bare :class:`~repro.storage.device.SimulatedSSD` (no fault
injection, no subclass) the executor's bulk replay runs the same exchange
fully inlined, with identical accounting, from the ``_turbo`` tuple bound
here.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat

from repro.analyze.sanitizer import attach as _attach_sanitizer
from repro.analyze.sanitizer import env_enabled as _sanitize_env_enabled
from repro.bufferpool.pool import FramePool
from repro.bufferpool.repair import repair_page
from repro.bufferpool.stats import BufferStats
from repro.bufferpool.table import make_table
from repro.bufferpool.wal import WriteAheadLog
from repro.errors import (
    CorruptPageError,
    IOFaultError,
    PageNotBufferedError,
    PoolExhaustedError,
    RetriesExhaustedError,
    TornWriteError,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.policies.base import ReplacementPolicy
from repro.storage.clock import to_ticks
from repro.storage.device import SimulatedSSD

__all__ = ["BufferPoolManager"]

#: Drains an iterator in C (``_consume(map(hook, pages))``, no frame per page).
_consume = deque(maxlen=0).extend


def _transition(update, note):
    """The callable for one dirty/clean transition: the mirror set's
    ``update`` alone when the policy does not listen (``note`` is
    ``None``), else update-then-note (the policy then reads its view
    already moved)."""
    if note is None:
        return update

    def transition(page: int) -> None:
        update(page)
        note(page)

    return transition


class BufferPoolManager:
    """Classic bufferpool: policy-driven replacement, single-page write-back.

    Parameters
    ----------
    capacity:
        Pool size in pages (PostgreSQL's ``shared_buffers``).
    policy:
        A replacement policy; the manager binds itself as the policy's
        :class:`~repro.policies.base.PageStateView`.
    device:
        The simulated storage device holding the database pages.
    wal:
        Optional write-ahead log; when present, every page write request is
        logged before the page is dirtied (crash-consistency ordering).
    sanitize:
        Attach the :mod:`repro.analyze.sanitizer` invariant checker, which
        validates the full bufferpool state after every public operation.
        ``None`` (the default) consults the ``REPRO_SANITIZE`` environment
        switch; ``True``/``False`` override it.  Debugging aid — expect an
        order-of-magnitude slowdown when enabled.
    retry:
        Policy applied when a device I/O raises
        :class:`~repro.errors.IOFaultError` (only possible when the device
        is a :class:`~repro.faults.FaultyDevice`).  Defaults to
        :data:`~repro.faults.retry.DEFAULT_RETRY_POLICY`.  The fault path is
        reached exclusively through ``except`` handlers, so a fault-free
        device pays nothing for it.
    """

    #: Variant label used in reports ("baseline" vs "ace"/"ace+pf").
    variant = "baseline"

    #: The batch hook.  ``None`` here: a dirty victim is written back alone.
    #: :class:`~repro.core.ace.ACEBufferPoolManager` sets a
    #: :class:`~repro.core.writer.Writer` (and an ``evictor`` beside it);
    #: ``_handle_miss`` then hands the dirty victim to it — the single
    #: point where Algorithm 1 leaves the classic path.
    writer = None

    #: The prefetch hook: ACE's :class:`~repro.core.reader.Reader`, if any.
    reader = None

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy,
        device: SimulatedSSD,
        wal: WriteAheadLog | None = None,
        sanitize: bool | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self.policy = policy
        self.device = device
        self.wal = wal
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.pool = FramePool(capacity)
        self.table = make_table(getattr(device, "num_pages", None))
        self.stats = BufferStats()
        # Fast-path mirrors of the pool's state columns.  Policies probe
        # dirty/pinned state on every victim-selection step, so these are
        # the hottest lookups in the system; the pool's flat arrays remain
        # the authoritative record.
        self._dirty_set: set[int] = set()
        self._pinned_set: set[int] = set()
        # The PageStateView, answered in C: the mirror sets' own membership
        # tests, bound as instance attributes, so a policy filtering its
        # order through them runs no Python frame per page; ``pinned`` is
        # the live set a policy gates its fast paths on.
        self.is_dirty = self._dirty_set.__contains__
        self.is_pinned = self._pinned_set.__contains__
        self.pinned = self._pinned_set
        # Hot-path aliases.  The table's containers and the pool's state
        # arrays live for the manager's lifetime, so binding them here
        # removes attribute hops per request.
        self._slots = self.table._slots
        self._frame_of = self.table._frame_of
        self._probe_space = self.table.probe_space
        self._array_slots = self.table.backend == "array"
        pool = self.pool
        self._page_of = pool.page_of
        self._dirty_bits = pool.dirty_bits
        self._pin_counts = pool.pin_counts
        self._prefetched_bits = pool.prefetched_bits
        self._payloads = pool._payloads
        #: The device, iff it is a *bare* simulated SSD: no fault injection
        #: layer, no subclass, no checksum metadata.  Such a device cannot
        #: raise :class:`~repro.errors.IOFaultError`, so the executor may
        #: replay the miss routine fully inlined (``_replay_turbo``) with
        #: accounting identical to ``_handle_miss``.  A checksum-enabled
        #: device must go through ``_handle_miss``: the inlined loop
        #: writes payloads directly and would leave the checksum metadata
        #: stale (and skip read verification).
        self._plain_device = (
            device
            if type(device) is SimulatedSSD and not device.checksums_enabled
            else None
        )
        #: Prefetcher-training callback; installed by the ACE manager when a
        #: reader/prefetcher is attached.  It hears every access's page, in
        #: access order, no later than the next miss's ``on_miss`` — the
        #: executor's inlined loop defers it to there — so it must not read
        #: pool state.
        self._observer = None
        policy.bind(self)
        # The per-request policy calls.  The reference arm's hits call the
        # policy's own ``on_access`` (its membership check included); the
        # inlined loop, and eviction and warm install on both arms, call
        # what ``policy.hooks()`` publishes, on pages the table already
        # vouches for (the table's own checks guard those).
        self._policy_on_access = policy.on_access
        hit, self._policy_insert, self._policy_remove, dirtied, cleaned = (
            policy.hooks()
        )
        # One callable per dirty/clean transition: the mirror set's own
        # ``add``/``discard``, then the policy's hook only if it listens.
        self._mark_dirty = _transition(self._dirty_set.add, dirtied)
        self._mark_clean = _transition(self._dirty_set.discard, cleaned)
        if self._plain_device is not None:
            # Everything the executor's inlined loop touches that is
            # immutable for the manager's lifetime, packed into one tuple:
            # a single load + unpack per replay replaces a dozen
            # ``self.<attr>`` lookups.  ``device.stats`` is NOT cached: it is
            # replaced wholesale (``reset_stats``).
            self._turbo = (
                pool._free,
                self._slots,
                self._frame_of,
                self._array_slots,
                pool._payloads,
                pool.page_of,
                pool.dirty_bits,
                pool.prefetched_bits,
                device._payloads,
                device._single_read_ticks,
                device._single_write_ticks,
                device.ftl,
                device.clock,
                hit,
                policy.select_victim,
                self._policy_remove,
                self._policy_insert,
                self._mark_dirty,
                self._mark_clean,
                self.reader,
            )
        #: The attached invariant checker, or ``None`` when sanitising is
        #: off (the common case: the request path then carries zero
        #: sanitizer overhead — the wrappers are instance attributes
        #: installed only on opted-in managers).
        self.sanitizer = None
        if sanitize is None:
            sanitize = _sanitize_env_enabled()
        if sanitize:
            _attach_sanitizer(self)

    # --------------------------------------------------------- client API

    def read_page(self, page: int) -> object | None:
        """Fetch ``page`` for reading; returns its payload."""
        stats = self.stats
        stats.read_requests += 1
        frame_id = self._slots[page] if 0 <= page < self._probe_space else -1
        if frame_id >= 0:
            stats.hits += 1
            prefetched_bits = self._prefetched_bits
            if prefetched_bits[frame_id]:
                prefetched_bits[frame_id] = 0
                stats.prefetch_hits += 1
            self._policy_on_access(page, False)
        else:
            stats.misses += 1
            frame_id = self._handle_miss(page)
            if frame_id is None:
                raise PageNotBufferedError(
                    f"miss handling failed to load page {page}"
                )
        observer = self._observer
        if observer is not None:
            observer(page)
        return self._payloads[frame_id]

    def write_page(self, page: int, payload: object | None = None) -> object:
        """Fetch ``page`` for writing and apply an update.

        If ``payload`` is ``None`` the stored version counter is
        incremented; otherwise the payload replaces the page contents.
        Returns the new payload.  The update's redo image is WAL-logged
        before any data-page write can reach the device (WAL-before-data).
        """
        stats = self.stats
        stats.write_requests += 1
        frame_id = self._slots[page] if 0 <= page < self._probe_space else -1
        if frame_id >= 0:
            stats.hits += 1
            prefetched_bits = self._prefetched_bits
            if prefetched_bits[frame_id]:
                prefetched_bits[frame_id] = 0
                stats.prefetch_hits += 1
            self._policy_on_access(page, True)
        else:
            stats.misses += 1
            frame_id = self._handle_miss(page)
            if frame_id is None:
                raise PageNotBufferedError(
                    f"miss handling failed to load page {page}"
                )
        observer = self._observer
        if observer is not None:
            observer(page)
        dirty_bits = self._dirty_bits
        if not dirty_bits[frame_id]:
            dirty_bits[frame_id] = 1
            self._mark_dirty(page)
        payloads = self._payloads
        if payload is None:
            current = payloads[frame_id]
            base = current if isinstance(current, int) else 0
            payload = base + 1
        payloads[frame_id] = payload
        if self.wal is not None:
            self.wal.log_update(page, payload)
        return payload

    def access(self, page: int, is_write: bool) -> object | None:
        """Dispatch a trace request: read or write ``page``."""
        if is_write:
            return self.write_page(page)
        return self.read_page(page)

    def contains(self, page: int) -> bool:
        """Whether ``page`` is currently resident."""
        return page in self._frame_of

    @property
    def pool_pressure(self) -> float:
        """Fraction of the pool that cannot be freed cheaply right now.

        Pinned pages cannot be evicted at all and dirty pages need a device
        write-back first, so ``|pinned ∪ dirty| / capacity`` approaches 1.0
        just before misses start stalling on write-backs or the pool
        exhausts outright.  The serving layer's admission gate sheds new
        requests on this signal (see ``ServingConfig.pressure_threshold``).
        Derived from the two mirror sets on demand: the overlap is a walk
        of the pinned set, which is empty outside tests that pin.
        """
        pinned, dirty = self._pinned_set, self._dirty_set
        pressured = len(dirty)
        if pinned:
            pressured += len(pinned - dirty)
        return pressured / self.capacity

    @property
    def resident_count(self) -> int:
        """Number of resident pages (O(1))."""
        return len(self._frame_of)

    def resident_pages(self) -> list[int]:
        return self.table.pages()

    def dirty_pages(self) -> list[int]:
        """Resident pages with unflushed modifications.

        Reads the maintained dirty-set mirror instead of scanning every
        frame (O(capacity)); the background writer calls this every
        round.  Sorted so write-back scheduling never depends on set
        iteration order.
        """
        return sorted(self._dirty_set)

    def pin(self, page: int) -> None:
        """Pin a resident page so it cannot be evicted."""
        frame_id = self._frame_of.get(page)
        if frame_id is None:
            raise PageNotBufferedError(f"page {page} is not resident")
        pin_counts = self._pin_counts
        count = pin_counts[frame_id] + 1
        pin_counts[frame_id] = count
        if count == 1:
            self._pinned_set.add(page)

    def unpin(self, page: int) -> None:
        frame_id = self._frame_of.get(page)
        if frame_id is None:
            raise PageNotBufferedError(f"page {page} is not resident")
        pin_counts = self._pin_counts
        count = pin_counts[frame_id]
        if count == 0:
            raise ValueError(f"page {page} is not pinned")
        count -= 1
        pin_counts[frame_id] = count
        if count == 0:
            self._pinned_set.discard(page)

    def flush_page(self, page: int) -> None:
        """Write a resident dirty page back to the device (stays resident)."""
        frame_id = self._frame_of.get(page)
        if frame_id is None:
            raise PageNotBufferedError(f"page {page} is not resident")
        if self._dirty_bits[frame_id]:
            self._write_back([page])

    def flush_all(self) -> int:
        """Checkpoint-style flush of every dirty page; returns the count.

        The baseline manager flushes one page at a time, as the paper notes
        state-of-the-art systems do.
        """
        dirty = self.dirty_pages()
        for page in dirty:
            self._write_back([page])
        if self.wal is not None and not self._dirty_set:
            # A checkpoint record promises every earlier update has reached
            # the data pages; degraded write-backs leave pages dirty, so
            # the record is withheld until a later flush fully succeeds.
            self.wal.checkpoint_record()
        return len(dirty)

    # -------------------------------------------------------- miss handling

    def _handle_miss(self, page: int) -> int:
        """The miss path: make one frame available, read the page.

        Returns the frame id the page was installed into, so the request
        path never needs a second table lookup.  This is the one miss
        routine of every stack.  A dirty victim is where ACE (Algorithm 1,
        lines 25-27 and 38-39) leaves the classic exchange: with a
        ``writer`` the next ``n_w`` dirty pages are written as one batch —
        dispatched through ``writer.flush`` -> ``_write_back`` on every
        miss, because ``n_w`` is retuned mid-run and subclasses override
        ``_write_back`` — where the classic manager writes the victim
        alone.  A ``reader`` hears ``on_miss`` first and, if it prefetches,
        is asked twice: a miss into free frames may read ``n_e - 1``
        predicted pages along (ll. 9-16), a dirty victim becomes the wide
        exchange (ll. 25-36).  Its methods are looked up per call too.

        The exchange runs on the helpers (``_write_back``/``_evict``/
        ``_load``), which also retry, repair or degrade a faulty device's
        I/O.  The executor's ``_replay_turbo`` is this routine inlined,
        Reader included, step for step, for a bare device; every other
        stack (a wrapped device, a WAL with a ``flush_hook``, a subclass
        that overrides this routine, a sanitised manager) reaches it
        through ``read_page``/``write_page``.
        """
        reader = self.reader
        if reader is not None:
            reader.prefetcher.on_miss(page)
            if not self.config.prefetch_enabled:
                reader = None  # a Reader that only trains
        if self.pool.has_free():
            if reader is not None:
                # A batch even when the prefetch set comes back empty, here
                # and after the wide exchange: a faulty device draws its
                # fault schedule per call, so a batch of one is not a
                # ``read_page``.  (The inlined loop, on a bare device only,
                # reads an empty set's page alone: the same cost.)
                limit = min(self.evictor.n_e, self.pool.free_count) - 1
                return reader.fetch(page, reader.select_prefetch_set(page, limit))
        else:
            victim = self.policy.select_victim()
            if victim is None:
                raise self._pool_exhausted(page)
            dirty_set = self._dirty_set
            if victim not in dirty_set:
                self.stats.clean_evictions += 1
                self._evict([victim])
            else:
                self.stats.dirty_evictions += 1
                if reader is not None:
                    limit = self._exchange_wide(victim)
                    return reader.fetch(page, reader.select_prefetch_set(page, limit))
                writer = self.writer
                if writer is None:
                    # The classic exchange: one write-back for one read.
                    self._write_back([victim])
                else:
                    writer.flush(writer.select_writeback_set(victim))
                if victim in dirty_set:
                    # The write tore or failed before reaching the victim:
                    # fall back to the next clean page.
                    victim = self._degraded_victim(victim)
                if writer is None:
                    self._evict([victim])
                else:
                    self.evictor.evict([victim])
        return self._load(page)

    # ----------------------------------------------------------- internals

    def _pool_exhausted(
        self, page: int, candidates_examined: int | None = None
    ) -> PoolExhaustedError:
        """Build the uniform :class:`PoolExhaustedError` payload.

        Both raise sites (the miss routine here and the executor's inlined
        copy) funnel through this helper so shed/requeue logic in the
        serving layer sees one shape.
        ``candidates_examined`` defaults to the resident-page count: a
        ``None`` victim means the policy walked every resident candidate
        and found all of them pinned.
        """
        if candidates_examined is None:
            candidates_examined = len(self._frame_of)
        return PoolExhaustedError(
            "all pages are pinned",
            page=page,
            capacity=self.capacity,
            pinned=len(self._pinned_set),
            candidates_examined=candidates_examined,
        )

    def _write_back(self, pages: list[int], background: bool = False) -> int:
        """Write the given resident dirty pages to the device in one batch.

        The baseline manager always calls this with a single page; ACE's
        Writer calls it with up to ``n_w`` pages, which the device executes
        concurrently.  Pages are marked clean afterwards, each distinct
        page once.  Returns the number of pages written.  A page that is
        not resident or not dirty refuses the whole batch before anything
        is written: the error names the first such page.  The frames are
        resolved, checked and cleaned a column at a time, in C.
        """
        frames = list(map(self._frame_of.get, pages))
        dirty_bits = self._dirty_bits
        if None in frames or not all(map(dirty_bits.__getitem__, frames)):
            raise self._refusal(pages, evicting=False)[1]
        if not frames:
            return 0
        batch = dict(zip(pages, map(self._payloads.__getitem__, frames)))
        if self.wal is not None:
            # WAL-before-data: log records covering these pages must be
            # durable before the pages themselves are written.
            self.wal.flush()
        try:
            self.device.write_batch(batch)
        except IOFaultError as fault:
            return self._retry_write_back(batch, fault, background)
        _consume(map(dirty_bits.__setitem__, frames, repeat(0)))
        _consume(map(self._mark_clean, batch))
        written = len(batch)
        stats = self.stats
        stats.writebacks += written
        stats.writeback_batches += 1
        if background:
            stats.background_writebacks += written
        return written

    def _retry_write_back(
        self,
        batch: dict[int, object | None],
        fault: IOFaultError,
        background: bool,
    ) -> int:
        """Drive a faulted write-back to completion or graceful degradation.

        Pages the device acknowledged (a torn prefix, the healthy part of a
        batch with a dead page) are marked clean; a landed prefix proves the
        device is alive, so it also resets the attempt budget.  Whatever is
        still unwritten after a permanent fault or ``max_attempts``
        consecutive fruitless tries simply *stays dirty* — the pages remain
        resident and re-queued for the next write-back that covers them,
        and the caller falls back to a clean victim if it needed this one.
        Termination: every torn retry strictly shrinks the remainder, and
        fruitless attempts are bounded by the policy.
        """
        retry = self.retry
        clock = self.device.clock
        stats = self.stats
        landed: list[int] = []
        remaining = dict(batch)
        attempt = 1
        while True:
            stats.io_faults += 1
            if fault.acknowledged:
                for page in fault.acknowledged:
                    if page in remaining:
                        landed.append(page)
                        del remaining[page]
                if isinstance(fault, TornWriteError):
                    stats.degraded_writebacks += 1
                attempt = 1
                if not remaining:
                    break
            if fault.permanent or attempt >= retry.max_attempts:
                stats.failed_writebacks += len(remaining)
                break
            delay = to_ticks(retry.backoff_for(attempt))
            clock.ticks += delay
            stats.io_retries += 1
            stats.retry_backoff_ticks += delay
            attempt += 1
            try:
                self.device.write_batch(remaining)
            except IOFaultError as next_fault:
                fault = next_fault
                continue
            landed.extend(remaining)
            remaining.clear()
            break
        if not landed:
            return 0
        frame_of = self._frame_of
        dirty_bits = self._dirty_bits
        mark_clean = self._mark_clean
        for page in landed:
            frame_id = frame_of.get(page)
            if frame_id is not None:
                dirty_bits[frame_id] = 0
                mark_clean(page)
        stats.writebacks += len(landed)
        stats.writeback_batches += 1
        if background:
            stats.background_writebacks += len(landed)
        return len(landed)

    def _degraded_victim(self, failed: int) -> int:
        """Pick a clean victim after page ``failed`` refused to flush."""
        fallback = self._clean_victim_fallback()
        if fallback is None:
            raise RetriesExhaustedError(
                "write",
                (failed,),
                self.retry.max_attempts,
                f"write-back of victim page {failed} failed and the pool "
                "holds no clean page to evict instead",
            )
        self.stats.degraded_evictions += 1
        return fallback

    def _clean_victim_fallback(self) -> int | None:
        """First unpinned *clean* page in the policy's virtual order."""
        selected = self.policy.next_clean(1)
        return selected[0] if selected else None

    def _evict(self, pages: list[int]) -> None:
        """Drop clean, unpinned resident pages from the pool, in order: one
        call for the classic victim and for ACE's ``n_e`` alike, each flat
        array updated in one C-level pass, the counters added once.

        A page that is not resident (a repeat included: its first copy has
        left), dirty or pinned stops the eviction there, as a page-by-page
        loop would: the pages before it leave and are counted, and the
        error names it.
        """
        frames = list(map(self._frame_of.get, pages))
        if (
            None in frames
            or any(map(self._dirty_bits.__getitem__, frames))
            or any(map(self._pin_counts.__getitem__, frames))
            or len(set(frames)) < len(frames)
        ):
            index, error = self._refusal(pages, evicting=True)
            self._evict(pages[:index])
            raise error
        prefetched_bits = self._prefetched_bits
        unused = sum(map(prefetched_bits.__getitem__, frames))
        if unused:
            _consume(map(prefetched_bits.__setitem__, frames, repeat(0)))
        _consume(map(self._frame_of.__delitem__, pages))
        if self._array_slots:
            _consume(map(self._slots.__setitem__, pages, repeat(-1)))
        _consume(map(self._policy_remove, pages))
        _consume(map(self._page_of.__setitem__, frames, repeat(-1)))
        _consume(map(self._payloads.__setitem__, frames, repeat(None)))
        self.pool._free += frames
        stats = self.stats
        stats.evictions += len(frames)
        stats.prefetch_unused += unused

    def _refusal(self, pages: list[int], evicting: bool) -> tuple[int, Exception]:
        """The first page of ``pages`` that ``_evict`` (``evicting``) or
        ``_write_back`` must refuse, as ``(index, error)``: one that is not
        resident, or for an eviction one that is dirty, pinned or a
        repeat, or for a write-back one that is clean."""
        frame_of = self._frame_of
        dirty_bits = self._dirty_bits
        gone: set[int] = set()
        for index, page in enumerate(pages):
            frame_id = frame_of.get(page)
            if frame_id is None or page in gone:
                return index, PageNotBufferedError(f"page {page} is not resident")
            if not evicting:
                if not dirty_bits[frame_id]:
                    return index, ValueError(f"page {page} is not dirty")
                continue
            if dirty_bits[frame_id]:
                return index, ValueError(
                    f"cannot evict dirty page {page}; write it back first"
                )
            if self._pin_counts[frame_id]:
                return index, ValueError(f"cannot evict pinned page {page}")
            gone.add(page)
        raise AssertionError(f"no page of {pages} is refused")

    def _load(self, page: int) -> int:
        """Read ``page`` from the device and install it into a free frame."""
        try:
            payload = self.device.read_page(page)
        except CorruptPageError as corrupt:
            payload = self._repair_corrupt_read(page, corrupt)
        except IOFaultError as fault:
            payload = self._read_page_with_retry(page, fault)
        return self._install_fetched(page, payload)

    def _repair_corrupt_read(
        self, page: int, corrupt: CorruptPageError
    ) -> object | None:
        """Heal a checksum-failed read from the WAL and re-read once.

        A corrupt page is not retryable (re-reading returns the same bad
        bytes), but with a WAL attached it is *repairable*: the page's
        latest durable redo image — or the load-time payload for pages the
        log never touched — is rewritten and the read retried exactly once.
        A second checksum failure (fresh corruption injected under the
        repair) propagates: repair must terminate, not duel the injector.
        """
        stats = self.stats
        stats.io_faults += 1
        stats.corrupt_page_reads += 1
        if self.wal is None:
            raise corrupt
        if not repair_page(self.device, self.wal, page):
            raise corrupt
        stats.pages_repaired += 1
        return self.device.read_page(page)

    def _read_page_with_retry(
        self, page: int, fault: IOFaultError
    ) -> object | None:
        """Retry a faulted single-page read under the manager's policy.

        Reads cannot degrade — the requested payload either arrives or the
        request fails — so permanent faults re-raise immediately and
        transient faults escalate to :class:`RetriesExhaustedError` once
        the attempt budget is spent.
        """
        retry = self.retry
        clock = self.device.clock
        stats = self.stats
        attempt = 1
        while True:
            stats.io_faults += 1
            if fault.permanent:
                raise fault
            if attempt >= retry.max_attempts:
                raise RetriesExhaustedError(
                    "read",
                    (page,),
                    attempt,
                    f"could not read page {page}",
                    last_fault=fault,
                ) from fault
            delay = to_ticks(retry.backoff_for(attempt))
            clock.ticks += delay
            stats.io_retries += 1
            stats.retry_backoff_ticks += delay
            attempt += 1
            try:
                return self.device.read_page(page)
            except IOFaultError as next_fault:
                fault = next_fault

    def _install_fetched(self, page: int, payload: object | None) -> int:
        """Install a missed page, read alone, hot into a free frame.

        Returns the frame id the page now occupies.
        """
        frame_id = self.pool.allocate_frame()
        self._page_of[frame_id] = page
        self._payloads[frame_id] = payload
        self.table.insert(page, frame_id)
        self._policy_insert(page, None)
        return frame_id

    def _fetch_batch(self, pages: list[int], cold: bool) -> int:
        """Read ``pages`` in one device batch and install them all.

        ``pages[0]`` is the page that missed and enters hot; the rest are
        prefetched, flagged, and enter cold if ``cold``.  Returns the missed
        page's frame id.  The batch is installed whole or not at all: enough
        free frames, no page resident or repeated, and every page inside
        the translation space are checked, in C, before the read; a refused
        batch names its first bad page and charges nothing.  The frames
        leave the free list in ``allocate_frame``'s order, and each state
        array is filled in one C-level pass.
        """
        free = self.pool._free
        frame_of = self._frame_of
        n = len(pages)
        if (
            n > len(free)
            or len(set(pages)) < n
            or not frame_of.keys().isdisjoint(pages)
            or (self._array_slots
                and not 0 <= min(pages) <= max(pages) < self._probe_space)
        ):
            raise self._fetch_refusal(pages)
        payloads = self.device.read_batch(pages)
        frames = free[: -n - 1 : -1]
        del free[-n:]
        _consume(map(self._page_of.__setitem__, frames, pages))
        _consume(map(self._payloads.__setitem__, frames, payloads))
        frame_of.update(zip(pages, frames))
        if self._array_slots:
            _consume(map(self._slots.__setitem__, pages, frames))
        self._policy_insert(pages[0], None)
        if n > 1:
            prefetched = pages[1:]
            _consume(map(self._prefetched_bits.__setitem__, frames[1:], repeat(1)))
            self.stats.prefetch_issued += n - 1
            if cold:
                _consume(map(self.policy.insert, prefetched, repeat(True)))
            else:
                _consume(map(self._policy_insert, prefetched, repeat(None)))
        return frames[0]

    def _fetch_refusal(self, pages: list[int]) -> Exception:
        """Why :meth:`_fetch_batch` refuses ``pages``: its first page outside
        the translation space, resident or repeated, else too few frames."""
        frame_of = self._frame_of
        space = self.table.address_space
        seen: set[int] = set()
        for page in pages:
            if space is not None and not 0 <= page < space:
                # The vector is sized by the device: the device's own error.
                return IndexError(f"page {page} out of device range [0, {space})")
            if page in frame_of:
                return ValueError(
                    f"page {page} already mapped to frame {frame_of[page]}"
                )
            if page in seen:
                return ValueError(f"page {page} is repeated in the batch")
            seen.add(page)
        return RuntimeError("frame pool exhausted — evict before allocating")

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"policy={self.policy.name}, resident={len(self.table)})"
        )
