"""Virtual time source shared by simulated devices and the execution engine.

The reproduction deliberately avoids real threads and real sleeps: under
CPython's GIL, genuine concurrent I/O submission would be dominated by
interpreter overhead and would blur the asymmetry/concurrency effects the
paper isolates.  Instead, every component that "spends time" advances a
shared :class:`VirtualClock`, and batch costs are computed analytically by
:class:`repro.storage.latency.LatencyModel`.  This makes runs deterministic
and lets the cost model match the paper's first-order analysis exactly.

Exactly, because time is *counted*, not summed: the clock holds an integer
number of ticks (1 tick = 1 ps, a Python ``int``, so there is no horizon).
Every Table I constant is a microsecond figure of at most two decimals, so
every modelled latency is a whole number of ticks (a PCIe page write,
``253.29999999999998`` as a float, is 253 300 000 of them) and integer
addition commutes: a stretch of requests costs the same clock whether its
CPU charge is applied request by request or once after the stretch.  The
contract the loops rely on:

* **A duration** enters through :meth:`VirtualClock.advance` (microseconds,
  one ``round`` to ticks) or is converted once with :func:`to_ticks` and
  added to :attr:`VirtualClock.ticks` directly (the inlined miss path, the
  device's single-page write, the executor's per-stretch CPU charge).  Both spell the same number.
* **An interval timer** subtracts tick counts — ``mark = clock.ticks`` …
  ``to_us(clock.ticks - mark)`` — so a measured duration is the sum of the
  advances inside it whenever it started.  ``now_us`` differences are not:
  the float nearest to *t* depends on how large *t* already is.
* **A jump to a time** is :meth:`VirtualClock.advance_to`, which lands on
  the first tick with ``now_us >= deadline_us`` (:func:`tick_at`);
  ``advance(deadline - now)`` can round to zero ticks short of the deadline
  and never arrive.  A timer that compares ``now_us`` floats answers when
  it is next due the same way, with :func:`first_tick` over its predicate.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = [
    "TICKS_PER_US", "VirtualClock", "first_tick", "tick_at", "to_ticks", "to_us",
]

#: Clock resolution: 1 tick = 1 ps.
TICKS_PER_US = 1_000_000


def _ticks(value_us: float, if_negative: str) -> int:
    if value_us < 0:
        raise ValueError(f"{if_negative}: {value_us}")
    try:
        return round(value_us * TICKS_PER_US)
    except (ValueError, OverflowError):  # NaN, infinity
        raise ValueError(f"not a finite time: {value_us}") from None


def to_ticks(duration_us: float) -> int:
    """``duration_us`` as a whole number of ticks (what ``advance`` adds)."""
    return _ticks(duration_us, "a duration cannot be negative")


def to_us(ticks: int) -> float:
    """A tick count (or difference of two) in microseconds."""
    return ticks / TICKS_PER_US


def first_tick(holds: Callable[[float], bool], near_us: float) -> int:
    """The first tick whose time (``to_us(tick)``, what ``now_us`` reads)
    satisfies ``holds``, stepping from ``near_us``.

    ``holds`` must be monotone in time (false, then true for good), as a
    comparison of the time with fixed floats is.
    """
    try:
        tick = math.ceil(near_us * TICKS_PER_US)  # rounded: settle exactly
    except (ValueError, OverflowError):  # NaN, infinity
        raise ValueError(f"not a finite time: {near_us}") from None
    while not holds(tick / TICKS_PER_US):
        tick += 1
    while holds((tick - 1) / TICKS_PER_US):
        tick -= 1
    return tick


def tick_at(time_us: float) -> int:
    """The first tick with ``now_us >= time_us`` (where ``advance_to`` lands)."""
    return first_tick(float(time_us).__le__, time_us)


class VirtualClock:
    """A monotonic virtual clock measured in microseconds.

    The clock only moves forward.  Components call :meth:`advance` with the
    duration of the work they modelled (an I/O batch, a slice of CPU time);
    :attr:`ticks` is the count itself, for interval timers and for adding
    durations already converted with :func:`to_ticks`.
    """

    __slots__ = ("ticks",)

    def __init__(self, start_us: float = 0.0) -> None:
        self.ticks = _ticks(start_us, "clock cannot start in the past")

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self.ticks / TICKS_PER_US

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self.ticks / (TICKS_PER_US * 1_000_000)

    def advance(self, delta_us: float) -> float:
        """Move the clock forward by ``delta_us`` and return the new time.

        Raises ``ValueError`` on negative deltas: virtual time is monotonic
        by construction and a negative advance always indicates a bug in the
        caller's cost accounting.  NaN and infinity are refused too — a
        clock that stopped comparing would silence every deadline.
        """
        # ``_ticks`` written out: every device I/O comes through here.
        if delta_us < 0:
            raise ValueError(f"cannot advance clock by negative time: {delta_us}")
        try:
            self.ticks += round(delta_us * TICKS_PER_US)
        except (ValueError, OverflowError):  # NaN, infinity
            raise ValueError(f"not a finite time: {delta_us}") from None
        return self.ticks / TICKS_PER_US

    def advance_to(self, deadline_us: float) -> float:
        """Jump to the first tick with ``now_us >= deadline_us``.

        A deadline already reached leaves the clock where it is.  Returns
        the new time.
        """
        target = tick_at(deadline_us)
        if target > self.ticks:
            self.ticks = target
        return self.ticks / TICKS_PER_US

    def elapsed_since(self, t0_us: float) -> float:
        """Microseconds between a time ``t0_us`` and now (a float difference:
        to measure an interval, subtract tick counts instead)."""
        return self.now_us - t0_us

    def __repr__(self) -> str:
        return f"VirtualClock(now_us={self.now_us:.3f})"
