"""Shared fixtures for the fault-injection tests.

Most tests here need precise control over *which* operation faults and
*how*, which seeded rates cannot give.  :class:`ScriptedInjector` replaces
the RNG with an explicit per-operation script while reusing the real
:class:`~repro.faults.device.FaultyDevice` fault application, so the
semantics under test are exactly the shipped ones.
"""

from __future__ import annotations

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD

from tests.bufferpool.conftest import TEST_PROFILE

#: A non-null plan (arms a FaultyDevice even before a test swaps its
#: injector in; one built with an injector is armed whatever the plan)
#: that can never fire by itself: the bad page is outside any test device.
#: Scripted injectors override the decision logic anyway.
ARMED_PLAN = FaultPlan(media_error_pages=frozenset({-1}))


def make_base_device(num_pages: int = 256) -> SimulatedSSD:
    device = SimulatedSSD(TEST_PROFILE, num_pages=num_pages)
    device.format_pages(range(num_pages))
    return device


class ScriptedInjector(FaultInjector):
    """An injector driven by an explicit per-operation script.

    Each device operation consumes one script entry: ``None`` lets it
    through; a :class:`FaultKind` (or ``(kind, extra)`` tuple) schedules
    that fault.  ``extra`` is the cut index for ``TORN_BATCH`` and
    ``POWER_FAILURE``, the delay
    for ``LATENCY_SPIKE``, and the bad-page tuple for ``PERMANENT_MEDIA``.
    Once the script is exhausted every operation succeeds.
    """

    def __init__(self, plan: FaultPlan, script) -> None:
        super().__init__(plan)
        self.script = list(script)

    def _next(self, op: str, pages: tuple[int, ...]) -> FaultEvent | None:
        self.operations += 1
        if not self.script:
            return None
        entry = self.script.pop(0)
        if entry is None:
            return None
        kind, extra = entry if isinstance(entry, tuple) else (entry, None)
        index = self.operations
        if kind in (FaultKind.TORN_BATCH, FaultKind.POWER_FAILURE):
            cut = extra if extra is not None else max(1, len(pages) // 2)
            return self._record(FaultEvent(
                index, op, kind,
                pages=tuple(pages[cut:]), acknowledged=tuple(pages[:cut]),
            ))
        if kind is FaultKind.LATENCY_SPIKE:
            return self._record(FaultEvent(
                index, op, kind, pages=tuple(pages),
                delay_us=extra if extra is not None else 2_000.0,
            ))
        if kind is FaultKind.PERMANENT_MEDIA:
            bad = tuple(extra) if extra is not None else tuple(pages)
            good = tuple(page for page in pages if page not in bad)
            return self._record(FaultEvent(
                index, op, kind, pages=bad, acknowledged=good,
            ))
        return self._record(FaultEvent(index, op, kind, pages=tuple(pages)))

    def on_read(self, pages: tuple[int, ...]) -> FaultEvent | None:
        return self._next("read", pages)

    def on_write(self, pages: tuple[int, ...]) -> FaultEvent | None:
        return self._next("write", pages)


def scripted_device(script, num_pages: int = 256) -> FaultyDevice:
    """A FaultyDevice whose faults follow ``script`` exactly."""
    base = make_base_device(num_pages)
    return FaultyDevice(
        base, ARMED_PLAN, injector=ScriptedInjector(ARMED_PLAN, script)
    )


def scripted_manager(
    script,
    capacity: int = 8,
    num_pages: int = 256,
    retry=None,
    with_wal: bool = False,
):
    """A baseline manager over a scripted FaultyDevice."""
    device = scripted_device(script, num_pages=num_pages)
    wal = WriteAheadLog(device.clock) if with_wal else None
    manager = BufferPoolManager(
        capacity, LRUPolicy(), device, wal=wal, retry=retry
    )
    return manager, device.injector
