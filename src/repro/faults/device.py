"""FaultyDevice: a fault-injecting wrapper over :class:`SimulatedSSD`.

The wrapper composes — it never touches the simulator.  Every I/O is first
offered to the :class:`~repro.faults.plan.FaultInjector`; if a fault is
scheduled the wrapper applies its semantics and raises a structured
:class:`~repro.errors.IOFaultError`, otherwise it delegates unchanged:

* **transient read/write errors** — the operation's modelled latency is
  still charged (the device was busy failing), nothing lands, the caller
  may retry;
* **permanent media errors** — reads on a bad page always fail; a write
  batch containing bad pages lands its healthy pages and reports the bad
  ones as permanently failed;
* **latency spikes** — the operation succeeds after an extra virtual-time
  charge;
* **torn batches** — only a prefix of a multi-page write batch lands
  (:class:`~repro.errors.TornWriteError` reports both halves).

With a null plan (all rates zero, no bad pages) every method is a plain
delegation guarded by a single attribute test, so a rate-0 wrapper is
behaviourally identical to the bare device — the ``REPRO_FAULTS=0``
pass-through CI job pins that down.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import IOFaultError, TornWriteError
from repro.faults.plan import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.storage.device import DeviceStats, SimulatedSSD
from repro.storage.ftl import FlashTranslationLayer
from repro.storage.clock import VirtualClock

__all__ = ["FaultyDevice"]


class FaultyDevice:
    """Injects :class:`FaultPlan` failures in front of a ``SimulatedSSD``.

    Exposes the full device interface (``read_page``/``read_batch``/
    ``write_page``/``write_batch``/``format_pages``/``stats``/``clock``/
    ``ftl``/...), so a manager built over it cannot tell the difference —
    until an I/O fails.
    """

    def __init__(
        self,
        base: SimulatedSSD,
        plan: FaultPlan,
        injector: FaultInjector | None = None,
    ) -> None:
        self.base = base
        self.plan = plan
        self.injector = injector if injector is not None else FaultInjector(plan)
        self._armed = not plan.is_null

    # ------------------------------------------------- delegated surface

    @property
    def profile(self):
        return self.base.profile

    @property
    def model(self):
        return self.base.model

    @property
    def clock(self) -> VirtualClock:
        return self.base.clock

    @property
    def num_pages(self) -> int | None:
        return self.base.num_pages

    @property
    def stats(self) -> DeviceStats:
        return self.base.stats

    @property
    def ftl(self) -> FlashTranslationLayer | None:
        return self.base.ftl

    @property
    def _payloads(self) -> dict[int, object]:
        # Tests and diagnostics peek at stored payloads through the
        # device; expose the base mapping so a wrapped stack behaves the
        # same under inspection.
        return self.base._payloads

    def contains(self, page: int) -> bool:
        return self.base.contains(page)

    def peek(self, page: int) -> object | None:
        return self.base.peek(page)

    def peek_many(self, pages: Iterable[int]) -> list:
        return self.base.peek_many(pages)

    @property
    def checksums_enabled(self) -> bool:
        return self.base.checksums_enabled

    def verify_page(self, page: int) -> bool:
        """Scrub reads are maintenance I/O: charged, but never injected."""
        return self.base.verify_page(page)

    def corrupt_payload(self, page: int, payload: object | None) -> None:
        self.base.corrupt_payload(page, payload)

    def snapshot_payloads(self) -> dict[int, object]:
        return self.base.snapshot_payloads()

    def restore_payloads(self, snapshot: Mapping[int, object]) -> None:
        self.base.restore_payloads(snapshot)

    def format_pages(self, pages: Iterable[int]) -> None:
        """Preloading is an out-of-band operation: never fault-injected."""
        self.base.format_pages(pages)

    def reset_stats(self) -> None:
        self.base.reset_stats()

    # ----------------------------------------------------------- reads

    def read_page(self, page: int) -> object | None:
        if self._armed:
            event = self.injector.on_read((page,))
            if event is not None:
                self._apply_read_fault(event, batch_size=1)
        return self.base.read_page(page)

    def read_batch(self, pages: list[int] | tuple[int, ...]) -> list[object | None]:
        if self._armed and pages:
            event = self.injector.on_read(tuple(pages))
            if event is not None:
                self._apply_read_fault(event, batch_size=len(pages))
        return self.base.read_batch(pages)

    def _apply_read_fault(self, event: FaultEvent, batch_size: int) -> None:
        base = self.base
        stats = base.stats
        if event.kind is FaultKind.LATENCY_SPIKE:
            stats.latency_spikes += 1
            stats.fault_delay_us += event.delay_us
            base.clock.advance(event.delay_us)
            return
        if event.kind is FaultKind.BITROT:
            # The victim page decays in place *before* the read: the caller
            # sees a successful read of garbage — unless the base device
            # has checksums on, in which case the delegated read raises
            # CorruptPageError.  No extra time: the decay is free.
            page = event.pages[0]
            base.corrupt_payload(page, ("bitrot", base.peek(page)))
            stats.silent_corruptions += 1
            return
        # The device was busy failing: the read still costs its latency.
        elapsed = base.model.read_batch_us(batch_size)
        base.clock.advance(elapsed)
        stats.read_faults += 1
        if event.kind is FaultKind.PERMANENT_MEDIA:
            raise IOFaultError(
                "read", event.pages, "permanent media error", permanent=True
            )
        if event.kind is FaultKind.TRANSIENT_READ:
            raise IOFaultError("read", event.pages, "transient read error")
        raise AssertionError(f"unhandled read fault kind: {event.kind}")

    # ---------------------------------------------------------- writes

    def write_page(self, page: int, payload: object | None = None) -> None:
        self.write_batch({page: payload})

    def write_batch(self, pages: Mapping[int, object] | Iterable[int]) -> None:
        if not self._armed:
            self.base.write_batch(pages)
            return
        # Normalise exactly like the base device so a torn batch can be
        # split into an acknowledged prefix and a lost remainder.
        base = self.base
        if isinstance(pages, Mapping):
            items = list(pages.items())
        else:
            payloads = base._payloads
            items = [(page, payloads.get(page)) for page in pages]
        if not items:
            return
        page_ids = tuple(page for page, _ in items)
        if len(set(page_ids)) != len(page_ids):
            raise ValueError(f"duplicate pages in write batch: {list(page_ids)}")
        event = self.injector.on_write(page_ids)
        if event is None:
            base.write_batch(dict(items))
            return
        self._apply_write_fault(event, items)

    def _apply_write_fault(
        self, event: FaultEvent, items: list[tuple[int, object | None]]
    ) -> None:
        base = self.base
        stats = base.stats
        if event.kind is FaultKind.LATENCY_SPIKE:
            stats.latency_spikes += 1
            stats.fault_delay_us += event.delay_us
            base.clock.advance(event.delay_us)
            base.write_batch(dict(items))
            return
        if event.kind is FaultKind.TRANSIENT_WRITE:
            # Nothing lands, but the failed batch occupied the device.
            elapsed = base.model.write_batch_us(len(items))
            base.clock.advance(elapsed)
            stats.write_faults += 1
            raise IOFaultError(
                "write", event.pages, "transient write error"
            )
        if event.kind in (FaultKind.MISDIRECTED_WRITE, FaultKind.LOST_WRITE):
            self._apply_silent_write_fault(event, items)
            return
        acknowledged = set(event.acknowledged)
        landed = {page: payload for page, payload in items if page in acknowledged}
        if landed:
            base.write_batch(landed)
        if event.kind is FaultKind.TORN_BATCH:
            stats.torn_batches += 1
            raise TornWriteError(
                pages=event.pages, acknowledged=event.acknowledged
            )
        if event.kind is FaultKind.PERMANENT_MEDIA:
            # Permanent media error on part (or all) of the batch.
            stats.write_faults += 1
            raise IOFaultError(
                "write", event.pages, "permanent media error",
                acknowledged=event.acknowledged, permanent=True,
            )
        raise AssertionError(f"unhandled write fault kind: {event.kind}")

    def _apply_silent_write_fault(
        self, event: FaultEvent, items: list[tuple[int, object | None]]
    ) -> None:
        """Land the batch "successfully", then quietly betray one page.

        The whole batch is written through the base device first, so the
        timing, stats, FTL, and checksum-metadata accounting are exactly
        those of a healthy batch — the device *believes* it wrote
        everything.  Then the victim page's stored payload is rewound (lost
        write) or additionally smeared onto its neighbour (misdirected
        write) behind the checksums' back, leaving latent damage that only
        a checksum verify or a WAL cross-check can surface.
        """
        base = self.base
        victim = event.pages[0]
        old = base.peek(victim)
        new = dict(items)[victim]
        base.write_batch(dict(items))
        if event.kind is FaultKind.MISDIRECTED_WRITE:
            # The victim's payload landed on a neighbouring page instead.
            num_pages = base.num_pages
            target = (victim + 1) % num_pages if num_pages else victim + 1
            if target != victim:
                base.corrupt_payload(target, new)
        base.corrupt_payload(victim, old)
        base.stats.silent_corruptions += 1

    def __repr__(self) -> str:
        return f"FaultyDevice({self.plan.describe()}, base={self.base!r})"
