"""Calibration kernel: fixed pure-Python work timed either side of every pass.

Host speed on a shared 2-core box drifts by tens of percent over seconds
(contention, not descheduling: CPU time tracks wall).  Dividing a pass's
wall by the wall of a fixed piece of work run immediately before and after
it cancels that drift; what is left is the cost of the code under test.

The kernel imports nothing from ``repro`` — a change to the simulator cannot
change it.  It is a textbook LRU pool replaying the same page/write lists a
pass replays: of the kernels tried (flat-vector probes, pure arithmetic,
ordered-map touches) this one's wall tracked the replay's best across runs,
because its memory footprint and hit/miss mix are the replay's own.
"""

from __future__ import annotations

import statistics
from collections import OrderedDict
from itertools import islice
from time import perf_counter

__all__ = ["Calibrator", "lru_steps", "KERNEL_CAPACITY"]

#: Frames of the kernel's pool: 6 % of the 20 000-page database.
KERNEL_CAPACITY = 1_200


def lru_steps(
    pages: list[int],
    writes: list[bool],
    steps: int,
    order: OrderedDict[int, bool],
    capacity: int,
) -> tuple[int, int, int]:
    """Serve exactly ``steps`` requests from an LRU pool held in ``order``.

    Walks the lists from their start, wrapping round as often as needed.
    Returns (hits, misses, dirty evictions); ``order`` maps each resident
    page to its dirty bit, least recently used first.  Besides being the
    calibration kernel this is the reference model the workloads' audits
    compare ``repro``'s counters with.
    """
    hits = misses = dirty_evictions = 0
    move_to_end = order.move_to_end
    remaining = steps
    while remaining > 0:
        for page, is_write in islice(zip(pages, writes), remaining):
            if page in order:
                hits += 1
                move_to_end(page)
                if is_write:
                    order[page] = True
            else:
                misses += 1
                if len(order) >= capacity:
                    dirty_evictions += order.popitem(last=False)[1]
                order[page] = is_write
        remaining -= len(pages)
    return hits, misses, dirty_evictions


class Calibrator:
    """Runs the kernel over one slice's lists and keeps every wall time."""

    def __init__(self, pages: list[int], writes: list[bool], iterations: int) -> None:
        if not pages or iterations < 1:
            raise ValueError("calibration needs a non-empty slice and work to do")
        self._pages = pages
        self._writes = writes
        self._iterations = iterations
        self._order: OrderedDict[int, bool] = OrderedDict()
        self.walls: list[float] = []

    def run(self) -> float:
        """One timed kernel run; returns (and records) its wall seconds."""
        start = perf_counter()
        lru_steps(
            self._pages, self._writes, self._iterations, self._order,
            KERNEL_CAPACITY,
        )
        wall = perf_counter() - start
        self.walls.append(wall)
        return wall

    def summary(self) -> dict[str, float]:
        """Median and coefficient of variation of the kernel's own walls.

        A CV of a few percent is an undisturbed host; tens of percent means
        the run was contended and ``accesses_per_s`` should not be trusted.
        """
        median = statistics.median(self.walls)
        cv = (
            statistics.stdev(self.walls) / statistics.fmean(self.walls)
            if len(self.walls) > 1
            else 0.0
        )
        return {"runs": len(self.walls), "median_ms": median * 1e3, "cv": cv}
