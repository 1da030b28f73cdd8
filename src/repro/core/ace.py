"""ACE: the Asymmetry & Concurrency-aware bufferpool manager (Algorithm 1).

ACE wraps an unmodified replacement policy and changes only what happens on
a buffer miss whose eviction candidate is **dirty**:

* the :class:`~repro.core.writer.Writer` concurrently writes back the next
  ``n_w`` dirty pages in the policy's virtual order (one device write wave
  when ``n_w = k_w``), amortising the asymmetric write cost;
* without prefetching, just the (now clean) victim is then dropped — ACE
  behaves exactly like the classic manager otherwise;
* with prefetching, the :class:`~repro.core.evictor.Evictor` drops ``n_e``
  pages and the :class:`~repro.core.reader.Reader` concurrently reads the
  missed page plus up to ``n_e - 1`` predicted pages, exploiting read
  concurrency.

When the candidate is clean, or on a miss with free frames, ACE follows the
classical path (modulo opportunistic prefetching into free slots), so a
read-only workload behaves *identically* to the baseline — the paper's
"no penalty" property.

The code has the same shape.  There is no ACE miss routine: every stack
runs :meth:`BufferPoolManager._handle_miss` — or, on a bare device, the
executor's turbo loop that inlines it, Reader or not — which hands a dirty
victim to ``self.writer`` where the classic manager (``writer = None``)
writes the one page, and asks ``self.reader`` at a miss into free frames
and at a dirty victim.  Only the step without a classic counterpart lives
here: the wide exchange, :meth:`ACEBufferPoolManager._exchange_wide`.
"""

from __future__ import annotations

from itertools import chain, filterfalse

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.config import ACEConfig
from repro.core.evictor import Evictor
from repro.core.reader import Reader
from repro.core.writer import Writer
from repro.errors import RetriesExhaustedError
from repro.faults.retry import RetryPolicy
from repro.policies.base import ReplacementPolicy
from repro.prefetch.base import Prefetcher
from repro.prefetch.composite import CompositePrefetcher
from repro.storage.device import SimulatedSSD

__all__ = ["ACEBufferPoolManager"]


class ACEBufferPoolManager(BufferPoolManager):
    """The ACE wrapper over any replacement policy.

    Parameters
    ----------
    capacity, policy, device, wal, sanitize:
        As in :class:`~repro.bufferpool.manager.BufferPoolManager`.
    config:
        ACE tuning; defaults to the paper's ``n_w = n_e = k_w`` for the
        device in use, with prefetching disabled.
    prefetcher:
        Read-ahead policy for the Reader.  Defaults to the paper's
        composite (TaP sequential + history table) when prefetching is
        enabled.  Any :class:`~repro.prefetch.base.Prefetcher` works.
    """

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy,
        device: SimulatedSSD,
        wal: WriteAheadLog | None = None,
        config: ACEConfig | None = None,
        prefetcher: Prefetcher | None = None,
        sanitize: bool | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            capacity,
            policy,
            device,
            wal=wal,
            sanitize=sanitize,
            retry=retry,
        )
        if config is None:
            config = ACEConfig.for_device(device.profile)
        self.config = config
        if prefetcher is None and config.prefetch_enabled:
            prefetcher = CompositePrefetcher(max_page=device.num_pages)
        self.writer = Writer(self, config.n_w)
        self.evictor = Evictor(self, config.n_e)
        self.reader = (
            Reader(
                self,
                prefetcher,
                cold_placement=(config.prefetch_placement == "cold"),
            )
            if prefetcher is not None
            else None
        )
        if self.reader is not None:
            # Per-access prefetcher training hook, consumed by the base
            # manager's request fast path.
            self._observer = self.reader.prefetcher.observe
            if self._plain_device is not None:
                # The executor's inlined loop reads its hooks from the tuple.
                self._turbo = (*self._turbo[:-1], self.reader)
        #: (n_w, n_e) to restore when degraded batching ends; ``None`` while
        #: running at full batch sizes.
        self._degraded_batching: tuple[int, int] | None = None

    # ------------------------------------------------- degraded batching

    @property
    def batching_degraded(self) -> bool:
        """Whether a circuit breaker currently holds the batches shrunk."""
        return self._degraded_batching is not None

    def enter_degraded_batching(self, n_w: int = 1, n_e: int | None = None) -> None:
        """Temporarily shrink the write-back/eviction batch sizes.

        Called by the serving layer's circuit breaker when device latency
        spikes push tail latency past its threshold: a full ``n_w``-page
        batch stalls the triggering request (and everything queued behind
        it) for the whole batch, so under pressure smaller batches trade
        amortisation for tail latency.  Idempotent; the original sizes are
        captured on first entry and restored by
        :meth:`exit_degraded_batching`.
        """
        if n_w < 1:
            raise ValueError(f"degraded n_w must be positive: {n_w}")
        if self._degraded_batching is None:
            self._degraded_batching = (self.writer.n_w, self.evictor.n_e)
        full_n_w, full_n_e = self._degraded_batching
        self.writer.n_w = min(n_w, full_n_w)
        self.evictor.n_e = min(n_e if n_e is not None else n_w, full_n_e)
        self.evictor.n_e = max(1, self.evictor.n_e)

    def exit_degraded_batching(self) -> None:
        """Restore the full batch sizes captured at degradation entry."""
        if self._degraded_batching is None:
            return
        self.writer.n_w, self.evictor.n_e = self._degraded_batching
        self._degraded_batching = None

    @property
    def variant(self) -> str:  # type: ignore[override]
        return "ace+pf" if self.prefetching_enabled else "ace"

    @property
    def prefetching_enabled(self) -> bool:
        return self.config.prefetch_enabled and self.reader is not None

    # ------------------------------------------------------- Algorithm 1

    def _exchange_wide(self, victim: int) -> int:
        """Lines 25-36, a prefetching stack's dirty victim: write ``n_w``
        dirty pages concurrently, evict ``n_e`` pages led by ``victim``;
        returns the prefetch budget (the freed frames but the missed page's)."""
        is_dirty = self._dirty_set.__contains__
        writeback_set = self.writer.select_writeback_set(victim)
        eviction_set = self.evictor.select_eviction_set(victim)
        # Pages about to be evicted must be clean; fold any dirty ones into
        # the same concurrent write batch ("pages written and to be evicted
        # can be different", Algorithm 1 comment).
        self.writer.flush(
            list(dict.fromkeys(chain(writeback_set, filter(is_dirty, eviction_set))))
        )
        # Degradation: a torn/failed batch leaves some candidates dirty.
        # Evict only the pages that actually came back clean; the rest stay
        # resident and re-queued, and the prefetch budget shrinks to match.
        clean_set = list(filterfalse(is_dirty, eviction_set))
        skipped = len(eviction_set) - len(clean_set)
        if skipped:
            self.stats.degraded_evictions += skipped
            if not clean_set:
                fallback = self._clean_victim_fallback()
                if fallback is None:
                    raise RetriesExhaustedError(
                        "write",
                        tuple(eviction_set),
                        self.retry.max_attempts,
                        "batched write-back failed and the pool holds no "
                        "clean page to evict instead",
                    )
                clean_set = [fallback]
        self.evictor.evict(clean_set)
        # The co-evicted pages (everything but the victim) were clean or
        # just cleaned; count them as clean evictions.
        self.stats.clean_evictions += (
            len(clean_set) - 1 if victim in clean_set else len(clean_set)
        )
        return len(clean_set) - 1

    # ----------------------------------------------------------- flushing

    def flush_all(self) -> int:
        """Checkpoint-style flush, batched ``n_w`` pages at a time.

        The paper augments PostgreSQL's checkpointer and background writer
        to "always perform n_w writes concurrently"; the ACE manager's own
        flush does the same.  It reads the Writer's *live* batch size so a
        breaker-degraded manager also checkpoints with small batches.
        """
        dirty = self.dirty_pages()
        n_w = self.writer.n_w
        for start in range(0, len(dirty), n_w):
            self._write_back(dirty[start : start + n_w])
        if self.wal is not None and not self._dirty_set:
            # Same rule as the base manager: no checkpoint record while
            # degraded write-backs have left pages dirty.
            self.wal.checkpoint_record()
        return len(dirty)
