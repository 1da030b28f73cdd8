"""Simulated SSD with asymmetry, concurrency, and an optional FTL backend.

:class:`SimulatedSSD` is the storage substrate every experiment runs on.  It
combines three pieces:

* a :class:`~repro.storage.latency.LatencyModel` that converts I/O batches
  into virtual time (asymmetry ``alpha``, concurrency ``k_r``/``k_w``);
* a :class:`~repro.storage.clock.VirtualClock` that accumulates that time;
* optionally a :class:`~repro.storage.ftl.FlashTranslationLayer` that tracks
  physical writes, garbage collection, and wear.

The device also stores page payloads (any Python object, typically a version
counter) so that durability invariants — "an acknowledged write is readable
afterwards" — can be property-tested end to end.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.errors import CorruptPageError
from repro.storage.clock import VirtualClock, to_ticks
from repro.storage.ftl import FlashTranslationLayer
from repro.storage.latency import LatencyModel
from repro.storage.profiles import DeviceProfile

__all__ = ["SimulatedSSD", "DeviceStats", "page_checksum"]


def page_checksum(page: int, payload: object | None) -> int:
    """Deterministic checksum over a page's identity and payload.

    Covering the page *number* as well as the payload makes misdirected
    writes (page A's bytes landing on page B) detectable, not just bitrot:
    the stored checksum is computed for the intended page, so the stray
    payload never verifies against its accidental home.  Payloads are
    simulator-level Python values (version counters, tuples), so ``repr``
    is a stable serialisation.
    """
    return zlib.crc32(repr((page, payload)).encode())


# ``slots=True``: the executor's inlined miss path bumps these counters on
# every device-bound request.
@dataclass(slots=True)
class DeviceStats:
    """Logical I/O counters for one simulated device.

    Times are clock ticks (:mod:`repro.storage.clock`): integers, so they
    sum to the same count in any order.
    """

    reads: int = 0
    writes: int = 0
    read_batches: int = 0
    write_batches: int = 0
    read_ticks: int = 0
    write_ticks: int = 0
    largest_write_batch: int = 0
    largest_read_batch: int = 0
    write_batch_size_histogram: dict[int, int] = field(default_factory=dict)
    # Fault accounting, incremented by repro.faults.FaultyDevice (always
    # zero on a bare device — the fields exist so metrics plumbing is
    # uniform whether or not injection is attached).
    read_faults: int = 0
    write_faults: int = 0
    torn_batches: int = 0
    latency_spikes: int = 0
    fault_delay_ticks: int = 0
    #: Silent corruptions injected (bitrot, misdirected or lost writes) —
    #: these never raise at injection time; that is what makes them silent.
    silent_corruptions: int = 0
    #: Reads/verifies that found a payload inconsistent with its checksum.
    checksum_failures: int = 0

    @property
    def total_ios(self) -> int:
        return self.reads + self.writes

    @property
    def faults_injected(self) -> int:
        """Injected failures (latency spikes excluded: those succeed)."""
        return self.read_faults + self.write_faults + self.torn_batches

    @property
    def mean_write_batch(self) -> float:
        if self.write_batches == 0:
            return 0.0
        return self.writes / self.write_batches

    def copy(self) -> "DeviceStats":
        return replace(
            self, write_batch_size_histogram=dict(self.write_batch_size_histogram)
        )

    def merge(self, other: "DeviceStats") -> None:
        """Add ``other``'s counters to these, in place.

        Counts and ticks sum; the ``largest_*`` fields are maxima, so they
        merge by ``max``; the histogram adds key-wise, walking ``other``'s
        keys in sorted order so the merged dict never inherits an
        insertion order from the run that produced it.
        """
        for name in self.__slots__:
            value = getattr(other, name)
            if name == "write_batch_size_histogram":
                histogram = self.write_batch_size_histogram
                for size, count in sorted(value.items()):
                    histogram[size] = histogram.get(size, 0) + count
            elif name.startswith("largest_"):
                setattr(self, name, max(getattr(self, name), value))
            else:
                setattr(self, name, getattr(self, name) + value)


class SimulatedSSD:
    """A page-addressable SSD simulator driven by a virtual clock.

    Parameters
    ----------
    profile:
        Device characteristics (``alpha``, ``k_r``, ``k_w``, latencies).
    num_pages:
        Exported capacity in pages.  Required when ``with_ftl`` is true.
    clock:
        Shared virtual clock; a private clock is created if omitted.
    with_ftl:
        Attach a flash translation layer so physical writes / GC / wear are
        tracked (needed for Table III and Figure 9).
    pages_per_block, over_provision:
        Forwarded to the FTL when enabled.
    checksums:
        Keep an out-of-band checksum per page (updated on every write,
        verified on every read).  Reads of a page whose payload no longer
        matches its checksum raise :class:`~repro.errors.CorruptPageError`.
        Off by default: a disabled device carries no per-I/O overhead
        beyond a single ``is None`` test on the generic paths, and the
        executor's inlined miss path bypasses it entirely.
    """

    def __init__(
        self,
        profile: DeviceProfile,
        num_pages: int | None = None,
        clock: VirtualClock | None = None,
        with_ftl: bool = False,
        pages_per_block: int = 64,
        over_provision: float = 0.10,
        checksums: bool = False,
    ) -> None:
        self.profile = profile
        self.model: LatencyModel = profile.latency_model()
        self.clock = clock if clock is not None else VirtualClock()
        self.num_pages = num_pages
        #: The exclusive bound every entry point checks a page against:
        #: ``num_pages``, or ``inf`` when unbounded.  Page numbers are never
        #: negative, bounded or not.
        self._page_limit = num_pages if num_pages is not None else math.inf
        # The latency model is a pure function of the batch size, so the
        # single-page costs — paid on every cache miss and every classic
        # write-back — are computed once, as the ticks ``advance`` would
        # add: ``read_page`` / ``write_page`` add them to ``clock.ticks``
        # directly, and the inlined loop adds count × cost once a stretch.
        self._single_read_ticks = to_ticks(self.model.read_batch_us(1))
        self._single_write_ticks = to_ticks(self.model.write_batch_us(1))
        # Every batch size's cost in ticks, memoised on first use and
        # seeded with the single-page cost: no model call after the first.
        self._read_costs = {1: self._single_read_ticks}
        self._write_costs = {1: self._single_write_ticks}
        self.stats = DeviceStats()
        self._payloads: dict[int, object] = {}
        #: Out-of-band checksum metadata: page -> checksum of the payload
        #: the device believes it stored.  ``None`` when disabled.
        self._checksums: dict[int, int] | None = {} if checksums else None
        self.ftl: FlashTranslationLayer | None = None
        if with_ftl:
            if num_pages is None:
                raise ValueError("an FTL-backed device needs num_pages")
            self.ftl = FlashTranslationLayer(
                num_logical_pages=num_pages,
                pages_per_block=pages_per_block,
                over_provision=over_provision,
            )

    # ----------------------------------------------------------------- reads

    def read_page(self, page: int) -> object | None:
        """Read a single page; advances the clock by one read latency."""
        if not 0 <= page < self._page_limit:
            raise self._range_error(page)
        ticks = self._single_read_ticks
        self.clock.ticks += ticks
        stats = self.stats
        stats.reads += 1
        stats.read_batches += 1
        stats.read_ticks += ticks
        if stats.largest_read_batch < 1:
            stats.largest_read_batch = 1
        if self._checksums is not None:
            self._verify_checksum(page)
        return self._payloads.get(page)

    def read_batch(self, pages: list[int] | tuple[int, ...]) -> list[object | None]:
        """Read ``pages`` concurrently; the batch costs ``ceil(n/k_r)`` waves.

        Returns the payload stored for each page (``None`` for pages never
        written — a freshly formatted database page).
        """
        n = len(pages)
        if n == 0:
            return []
        if not 0 <= min(pages) <= max(pages) < self._page_limit:
            self._check_pages(pages)  # names the first page out of range
        ticks = self._read_costs.get(n)
        if ticks is None:
            ticks = self._read_costs[n] = to_ticks(self.model.read_batch_us(n))
        self.clock.ticks += ticks
        stats = self.stats
        stats.reads += n
        stats.read_batches += 1
        stats.read_ticks += ticks
        if n > stats.largest_read_batch:
            stats.largest_read_batch = n
        if self._checksums is not None:
            for page in pages:
                self._verify_checksum(page)
        return list(map(self._payloads.get, pages))

    # ---------------------------------------------------------------- writes

    def write_page(self, page: int, payload: object | None = None) -> None:
        """Write a single page; advances the clock by one write latency.

        ``write_batch({page: payload})`` written out, as :meth:`read_page`
        is: every redo write and every log page flushed outside the
        executor's inlined loop come through here (that loop's log pages
        land through :meth:`store_writes`).
        """
        if not 0 <= page < self._page_limit:
            raise self._range_error(page)
        ticks = self._single_write_ticks
        self.clock.ticks += ticks
        stats = self.stats
        stats.writes += 1
        stats.write_batches += 1
        stats.write_ticks += ticks
        histogram = stats.write_batch_size_histogram
        histogram[1] = histogram.get(1, 0) + 1
        if stats.largest_write_batch < 1:
            stats.largest_write_batch = 1
        self._payloads[page] = payload
        if self.ftl is not None:
            self.ftl.write(page)
        if self._checksums is not None:
            self._checksums[page] = page_checksum(page, payload)

    def store_writes(self, pages: Sequence[int], payloads: Sequence[object]) -> None:
        """Land ``len(pages)`` single-page writes, in order, in one call:
        ``write_page`` for each ``(page, payload)`` pair but the clock, which
        the caller charged (``_single_write_ticks`` a write) when it issued
        each.  A log page is timed at its flush and stored when the log is
        next observed (``WriteAheadLog.write_out``).

        The same range check (before anything lands), counters (``n``
        single-page writes' ticks), size-1 histogram bucket, payloads, FTL
        writes and checksums.
        """
        n = len(pages)
        if not n:
            return
        if not 0 <= min(pages) <= max(pages) < self._page_limit:
            self._check_pages(pages)  # names the first page out of range
        stats = self.stats
        stats.writes += n
        stats.write_batches += n
        stats.write_ticks += n * self._single_write_ticks
        histogram = stats.write_batch_size_histogram
        histogram[1] = histogram.get(1, 0) + n
        if stats.largest_write_batch < 1:
            stats.largest_write_batch = 1
        self._payloads.update(zip(pages, payloads))
        if self.ftl is not None:
            self.ftl.write_batch(pages)
        checksums = self._checksums
        if checksums is not None:
            checksums.update(zip(pages, map(page_checksum, pages, payloads)))

    def write_batch(
        self,
        pages: Mapping[int, object] | Iterable[int],
    ) -> None:
        """Write a batch of pages concurrently.

        ``pages`` is either a mapping ``page -> payload`` or a plain iterable
        of page numbers (payload preserved if previously written, else the
        page is marked present with ``None``).  The batch costs
        ``ceil(n/k_w)`` write waves — this is the concurrency ACE exploits.
        """
        payloads = self._payloads
        # A dict first: the ABC check runs Python code on its first call.
        if type(pages) is not dict and not isinstance(pages, Mapping):
            page_ids = list(pages)
            if len(set(page_ids)) != len(page_ids):
                raise ValueError(f"duplicate pages in write batch: {page_ids}")
            pages = {page: payloads.get(page) for page in page_ids}
        n = len(pages)
        if n == 0:
            return
        if not 0 <= min(pages) <= max(pages) < self._page_limit:
            self._check_pages(pages)  # names the first page out of range
        ticks = self._write_costs.get(n)
        if ticks is None:
            ticks = self._write_costs[n] = to_ticks(self.model.write_batch_us(n))
        self.clock.ticks += ticks
        stats = self.stats
        stats.writes += n
        stats.write_batches += 1
        stats.write_ticks += ticks
        histogram = stats.write_batch_size_histogram
        histogram[n] = histogram.get(n, 0) + 1
        if n > stats.largest_write_batch:
            stats.largest_write_batch = n
        payloads.update(pages)
        if self.ftl is not None:
            self.ftl.write_batch(pages)
        checksums = self._checksums
        if checksums is not None:
            for page, payload in pages.items():
                checksums[page] = page_checksum(page, payload)

    # ----------------------------------------------------------- checksums

    @property
    def checksums_enabled(self) -> bool:
        return self._checksums is not None

    def _verify_checksum(self, page: int) -> None:
        """Raise :class:`CorruptPageError` if ``page`` fails verification."""
        stored = self._checksums.get(page)  # type: ignore[union-attr]
        if stored is None:
            return  # never written through this device: nothing to check
        computed = page_checksum(page, self._payloads.get(page))
        if computed != stored:
            self.stats.checksum_failures += 1
            raise CorruptPageError(page, stored, computed)

    def verify_page(self, page: int) -> bool:
        """Scrub one page: read it and check its checksum, without raising.

        Charges one read latency (a scrub is real I/O) and returns whether
        the page verified.  On a device without checksums every page
        trivially verifies — the scrubber then relies on WAL cross-checks
        alone.
        """
        if not 0 <= page < self._page_limit:
            raise self._range_error(page)
        ticks = self._single_read_ticks
        self.clock.ticks += ticks
        stats = self.stats
        stats.reads += 1
        stats.read_batches += 1
        stats.read_ticks += ticks
        if stats.largest_read_batch < 1:
            stats.largest_read_batch = 1
        checksums = self._checksums
        if checksums is None:
            return True
        stored = checksums.get(page)
        if stored is None:
            return True
        if page_checksum(page, self._payloads.get(page)) == stored:
            return True
        stats.checksum_failures += 1
        return False

    def corrupt_payload(self, page: int, payload: object | None) -> None:
        """Silently replace a page's stored payload, *bypassing* checksums.

        This is the fault-injection surface for silent corruption: the
        payload changes but the checksum metadata keeps describing what the
        device *believes* it stored, so the damage is latent until a read
        or scrub verifies the page.  Out-of-band: no I/O cost, no stats.
        """
        self._payloads[page] = payload

    def snapshot_payloads(self) -> dict[int, object]:
        """Copy the stored payload map (diagnostics / crash-point replay)."""
        return dict(self._payloads)

    def restore_payloads(self, snapshot: Mapping[int, object]) -> None:
        """Reset stored payloads to a snapshot, rebuilding checksums.

        Used by the crash-point engine to rewind the device to its
        post-crash image between crash-during-recovery replays without
        re-running the whole trace.  Out-of-band: no I/O cost.
        """
        # Mutate in place: hot paths (the manager's turbo tuple) may hold a
        # direct reference to the payload dict.
        self._payloads.clear()
        self._payloads.update(snapshot)
        checksums = self._checksums
        if checksums is not None:
            checksums.clear()
            for page, payload in self._payloads.items():
                checksums[page] = page_checksum(page, payload)

    # ------------------------------------------------------------- utilities

    def contains(self, page: int) -> bool:
        """Whether ``page`` has ever been written to this device."""
        return page in self._payloads

    def peek(self, page: int) -> object | None:
        """Read a page's stored payload without I/O cost or fault exposure.

        Diagnostics only (durability assertions, the chaos harness): a real
        system cannot do this, so nothing in the request path may.
        """
        return self._payloads.get(page)

    def peek_many(self, pages: Iterable[int]) -> list:
        """:meth:`peek` for a column of pages, in one C call: the stored
        payloads, in order.  Diagnostics only, like :meth:`peek`."""
        return list(map(self._payloads.get, pages))

    def format_pages(self, pages: Iterable[int]) -> None:
        """Pre-populate pages (database load) without advancing the clock.

        Counters are reset afterwards so experiments measure steady-state
        behaviour, mirroring the paper's device preconditioning step.
        """
        checksums = self._checksums
        if checksums is not None or self.ftl is not None:
            pages = list(pages)
        # In place: the turbo loop holds a reference to this dict.
        self._payloads.update(dict.fromkeys(pages, 0))
        if checksums is not None:
            for page in pages:
                checksums[page] = page_checksum(page, 0)
        if self.ftl is not None:
            self.ftl.write_batch(pages)
        self.reset_stats()

    def reset_stats(self) -> None:
        """Zero logical and (if present) physical counters."""
        self.stats = DeviceStats()
        if self.ftl is not None:
            self.ftl.reset_counters()

    def _check_pages(self, pages: Iterable[int]) -> None:
        limit = self._page_limit
        for page in pages:
            if not 0 <= page < limit:
                raise self._range_error(page)

    def _range_error(self, page: int) -> IndexError:
        return IndexError(f"page {page} out of device range [0, {self._page_limit})")

    def __repr__(self) -> str:
        return (
            f"SimulatedSSD({self.profile.name!r}, alpha={self.profile.alpha}, "
            f"k_r={self.profile.k_r}, k_w={self.profile.k_w}, "
            f"t={self.clock.now_us:.0f}us)"
        )
