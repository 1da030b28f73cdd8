"""Adaptive ACE: tune the write-back batch size online.

The paper tunes ``n_w`` to the device's write concurrency ``k_w`` measured
*offline* (Table I).  In deployments the device is often a black box — a
cloud volume whose effective concurrency can even change with provisioned
IOPS.  :class:`AdaptiveACEBufferPoolManager` closes that gap: it measures
the **amortized per-page write-back latency** of candidate batch sizes on
the live workload and converges to the best one, re-probing periodically.

The tuner is a deterministic explore/exploit state machine:

1. **Explore** — cycle through a geometric ladder of candidate ``n_w``
   values (1, 2, 4, ...), attributing each batched write-back's measured
   latency to the candidate that issued it, until every candidate has
   written at least ``explore_pages`` pages.
2. **Exploit** — commit to the candidate with the lowest per-page cost for
   ``exploit_pages`` written pages, then return to step 1 (devices and
   workloads drift).

Because the amortized write cost is minimised exactly at ``n_w = k_w``
(one full device wave; see :meth:`repro.storage.latency.LatencyModel.
amortized_write_us`), the tuner recovers the paper's recommended setting
without being told ``k_w``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.bufferpool.wal import WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.policies.base import ReplacementPolicy
from repro.prefetch.base import Prefetcher
from repro.storage.clock import to_us
from repro.storage.device import SimulatedSSD

__all__ = ["AdaptiveACEBufferPoolManager", "DEFAULT_LADDER"]

#: Geometric candidate ladder; covers every device in the paper's Table I.
DEFAULT_LADDER = (1, 2, 4, 8, 16, 32)


class AdaptiveACEBufferPoolManager(ACEBufferPoolManager):
    """ACE with an online explore/exploit tuner for ``n_w``.

    Parameters
    ----------
    capacity, policy, device, wal, prefetcher:
        As in :class:`~repro.core.ace.ACEBufferPoolManager`.
    ladder:
        Candidate ``n_w`` values to explore (capped at the pool capacity).
    explore_pages:
        Written pages required per candidate before it is considered
        measured.
    exploit_pages:
        Written pages to spend on the winning candidate before re-probing.
    prefetch_enabled:
        Enable the Reader (``n_e`` follows the tuned ``n_w``).
    """

    def __init__(
        self,
        capacity: int,
        policy: ReplacementPolicy,
        device: SimulatedSSD,
        wal: WriteAheadLog | None = None,
        prefetcher: Prefetcher | None = None,
        ladder: Iterable[int] = DEFAULT_LADDER,
        explore_pages: int = 64,
        exploit_pages: int = 4096,
        prefetch_enabled: bool = False,
    ) -> None:
        candidates = sorted({n for n in ladder if 1 <= n <= capacity})
        if not candidates:
            raise ValueError("the candidate ladder is empty after capping")
        if explore_pages < 1 or exploit_pages < 1:
            raise ValueError("explore/exploit budgets must be positive")
        initial = candidates[0]
        config = ACEConfig(
            n_w=initial, n_e=initial, prefetch_enabled=prefetch_enabled
        )
        super().__init__(
            capacity, policy, device, wal=wal, config=config,
            prefetcher=prefetcher,
        )
        self.ladder = tuple(candidates)
        self.explore_pages = explore_pages
        self.exploit_pages = exploit_pages
        self._phase = "explore"
        self._candidate_index = 0
        self._cost_us: dict[int, float] = dict.fromkeys(self.ladder, 0.0)
        self._pages_written: dict[int, int] = dict.fromkeys(self.ladder, 0)
        self._exploit_budget = 0
        self.reprobes = 0
        self._apply_n_w(initial)

    # ------------------------------------------------------------- tuning

    @property
    def current_n_w(self) -> int:
        return self.writer.n_w

    @property
    def tuned_n_w(self) -> int | None:
        """The batch size currently believed best (None while exploring)."""
        if self._phase != "exploit":
            return None
        return self.current_n_w

    def measured_costs(self) -> dict[int, float]:
        """Per-page amortized write cost per candidate (us/page)."""
        return {
            n: (self._cost_us[n] / pages if (pages := self._pages_written[n]) else float("inf"))
            for n in self.ladder
        }

    def _apply_n_w(self, n_w: int) -> None:
        self.writer.n_w = n_w
        self.evictor.n_e = n_w
        # Keep the config observable (frozen dataclass: rebuild).
        self.config = ACEConfig(
            n_w=n_w, n_e=n_w,
            prefetch_enabled=self.config.prefetch_enabled,
            prefetch_placement=self.config.prefetch_placement,
        )

    def _write_back(self, pages, background: bool = False) -> int:
        page_list = list(pages)
        clock = self.device.clock
        mark = clock.ticks
        written = super()._write_back(page_list, background=background)
        elapsed = to_us(clock.ticks - mark)
        if written:
            self._record(written, elapsed)
        return written

    def _record(self, pages_written: int, elapsed_us: float) -> None:
        n_w = self.current_n_w
        if self._phase == "explore":
            self._cost_us[n_w] += elapsed_us
            self._pages_written[n_w] += pages_written
            if self._pages_written[n_w] >= self.explore_pages:
                self._advance_exploration()
        else:
            self._exploit_budget -= pages_written
            if self._exploit_budget <= 0:
                self._start_exploration()

    def _advance_exploration(self) -> None:
        self._candidate_index += 1
        if self._candidate_index < len(self.ladder):
            self._apply_n_w(self.ladder[self._candidate_index])
            return
        best = min(self.measured_costs().items(), key=lambda item: item[1])[0]
        self._phase = "exploit"
        self._exploit_budget = self.exploit_pages
        self._apply_n_w(best)

    def _start_exploration(self) -> None:
        self.reprobes += 1
        self._phase = "explore"
        self._candidate_index = 0
        self._cost_us = dict.fromkeys(self.ladder, 0.0)
        self._pages_written = dict.fromkeys(self.ladder, 0)
        self._apply_n_w(self.ladder[0])
