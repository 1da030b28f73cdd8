"""Deterministic fault planning: what goes wrong, when, and reproducibly.

A :class:`FaultPlan` is a frozen, picklable description of a failure
environment: per-operation fault rates, the latency-spike magnitude, and an
explicit set of permanently bad pages.  A :class:`FaultInjector` turns the
plan into a concrete, seeded schedule: given the same plan and the same
operation sequence it produces a byte-identical sequence of
:class:`FaultEvent` decisions — which is what keeps fault-injected runs as
deterministic as clean ones (serial or across the parallel grid).

The injector only *decides*; applying the fault (charging virtual time,
mutating device state, raising :class:`~repro.errors.IOFaultError`) is
:class:`~repro.faults.device.FaultyDevice`'s job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultInjector"]


class FaultKind(Enum):
    """The failure modes the injector can schedule.

    The first six raise (or delay) at the faulted operation; the last
    three are *silent*: the operation appears to succeed while the stored
    data quietly diverges from what the caller believes it wrote — they are
    only observable later, through checksum verification or a WAL
    cross-check (see ``docs/architecture.md``).
    """

    TRANSIENT_READ = "transient-read"
    TRANSIENT_WRITE = "transient-write"
    PERMANENT_MEDIA = "permanent-media"
    LATENCY_SPIKE = "latency-spike"
    TORN_BATCH = "torn-batch"
    #: The power fails mid-batch: the acknowledged prefix lands, then
    #: :class:`~repro.errors.PowerFailure` unwinds the run.  No rate draws
    #: it; a crash-point schedule (:mod:`repro.verify.crashpoints`) arms
    #: it at one boundary, naming the boundary's site in ``op`` and its
    #: ordinal in ``index``.
    POWER_FAILURE = "power-failure"
    #: A read-path corruption: the page's stored payload decays in place.
    BITROT = "bitrot"
    #: One write of a batch lands on the *wrong* page: the victim keeps its
    #: old data (under fresh checksum metadata) and a neighbour is
    #: clobbered with the stray payload.
    MISDIRECTED_WRITE = "misdirected-write"
    #: One write of a batch is acknowledged but never persisted: the
    #: victim's old data survives under the new checksum metadata.
    LOST_WRITE = "lost-write"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: which operation, which kind, which pages."""

    index: int
    op: str
    kind: FaultKind
    pages: tuple[int, ...]
    #: Pages of the same operation that land despite the fault (torn
    #: batches, mixed healthy/bad-media batches).
    acknowledged: tuple[int, ...] = ()
    #: Extra virtual time charged by a latency spike.
    delay_us: float = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded recipe for injected device failures.

    Rates are per *operation* (a batch counts once), in ``[0, 1]``.
    ``media_error_pages`` fail deterministically on every access —
    they model unrecoverable bad blocks and are independent of the RNG.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    torn_batch_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_us: float = 2_000.0
    #: Silent-corruption rates (per operation, like the others).
    bitrot_rate: float = 0.0
    misdirected_write_rate: float = 0.0
    lost_write_rate: float = 0.0
    media_error_pages: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for name in (
            "read_error_rate", "write_error_rate",
            "torn_batch_rate", "latency_spike_rate",
            "bitrot_rate", "misdirected_write_rate", "lost_write_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.latency_spike_us < 0:
            raise ValueError(
                f"latency_spike_us cannot be negative: {self.latency_spike_us}"
            )
        # Accept any iterable of pages for convenience; store a frozenset.
        if not isinstance(self.media_error_pages, frozenset):
            object.__setattr__(
                self, "media_error_pages", frozenset(self.media_error_pages)
            )

    @property
    def is_null(self) -> bool:
        """Whether the plan can never produce a fault (pure pass-through)."""
        return (
            self.read_error_rate == 0.0
            and self.write_error_rate == 0.0
            and self.torn_batch_rate == 0.0
            and self.latency_spike_rate == 0.0
            and self.bitrot_rate == 0.0
            and self.misdirected_write_rate == 0.0
            and self.lost_write_rate == 0.0
            and not self.media_error_pages
        )

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan applying ``rate`` to reads, writes, and torn batches."""
        return cls(
            seed=seed,
            read_error_rate=rate,
            write_error_rate=rate,
            torn_batch_rate=rate,
            latency_spike_rate=rate,
        )

    @classmethod
    def spikes(
        cls, rate: float, spike_us: float = 2_000.0, seed: int = 0
    ) -> "FaultPlan":
        """A latency-spike-only plan (every operation still succeeds).

        The overload harness and the serving-layer circuit breaker tests
        use this shape: spikes inflate tail latency without introducing
        retries or data loss, isolating the admission-control response.
        """
        return cls(seed=seed, latency_spike_rate=rate, latency_spike_us=spike_us)

    @classmethod
    def silent(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A silent-corruption-only plan: bitrot, misdirected, lost writes.

        Every operation still *succeeds* from the caller's point of view —
        the data just quietly goes wrong.  This is the shape the chaos
        harness's detect+repair cell and the scrubber tests use.
        """
        return cls(
            seed=seed,
            bitrot_rate=rate,
            misdirected_write_rate=rate,
            lost_write_rate=rate,
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style spec into a plan.

        Either a bare float — a uniform rate, ``"0"`` giving the null
        pass-through plan — or a comma-separated ``key=value`` list with
        keys ``read``, ``write``, ``torn``, ``spike``, ``spike_us``,
        ``bitrot``, ``misdirect``, ``lost``, ``seed``
        (e.g. ``"read=0.01,torn=0.005,seed=7"``).
        """
        spec = spec.strip()
        if not spec:
            return cls()
        if "=" not in spec:
            return cls.uniform(float(spec))
        keys = {
            "read": "read_error_rate",
            "write": "write_error_rate",
            "torn": "torn_batch_rate",
            "spike": "latency_spike_rate",
            "spike_us": "latency_spike_us",
            "bitrot": "bitrot_rate",
            "misdirect": "misdirected_write_rate",
            "lost": "lost_write_rate",
            "seed": "seed",
        }
        kwargs: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in keys:
                known = ", ".join(sorted(keys))
                raise ValueError(f"unknown fault key {key!r}; known: {known}")
            target = keys[key]
            kwargs[target] = int(value) if target == "seed" else float(value)
        return cls(**kwargs)  # type: ignore[arg-type]

    def describe(self) -> str:
        """Short human-readable form (used by the chaos harness tables)."""
        if self.is_null:
            return "no faults"
        parts = []
        if self.read_error_rate:
            parts.append(f"read={self.read_error_rate:g}")
        if self.write_error_rate:
            parts.append(f"write={self.write_error_rate:g}")
        if self.torn_batch_rate:
            parts.append(f"torn={self.torn_batch_rate:g}")
        if self.latency_spike_rate:
            parts.append(f"spike={self.latency_spike_rate:g}")
        if self.bitrot_rate:
            parts.append(f"bitrot={self.bitrot_rate:g}")
        if self.misdirected_write_rate:
            parts.append(f"misdirect={self.misdirected_write_rate:g}")
        if self.lost_write_rate:
            parts.append(f"lost={self.lost_write_rate:g}")
        if self.media_error_pages:
            parts.append(f"bad-pages={len(self.media_error_pages)}")
        return ",".join(parts) + f" seed={self.seed}"


class FaultInjector:
    """Seeded decision engine: turns a plan into a concrete fault schedule.

    One injector belongs to one device.  Every decision is appended to
    :attr:`events`, so two runs can be compared for byte-identical fault
    schedules (the determinism acceptance test does exactly that).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed)
        #: Every fault decided so far, in decision order.
        self.events: list[FaultEvent] = []
        #: Total device operations consulted (faulted or not).
        self.operations = 0

    @property
    def faults_injected(self) -> int:
        return len(self.events)

    def on_read(self, pages: tuple[int, ...]) -> FaultEvent | None:
        """Decide the fate of one read operation over ``pages``."""
        plan = self.plan
        self.operations += 1
        index = self.operations
        bad = plan.media_error_pages.intersection(pages)
        if bad:
            return self._record(FaultEvent(
                index, "read", FaultKind.PERMANENT_MEDIA,
                pages=tuple(sorted(bad)),
            ))
        rng = self.rng
        if plan.read_error_rate and rng.random() < plan.read_error_rate:
            return self._record(FaultEvent(
                index, "read", FaultKind.TRANSIENT_READ, pages=tuple(pages),
            ))
        if plan.bitrot_rate and rng.random() < plan.bitrot_rate:
            # One page of the batch decays in place before it is read.
            victim = pages[rng.randrange(len(pages))]
            rest = tuple(page for page in pages if page != victim)
            return self._record(FaultEvent(
                index, "read", FaultKind.BITROT,
                pages=(victim,), acknowledged=rest,
            ))
        if plan.latency_spike_rate and rng.random() < plan.latency_spike_rate:
            return self._record(FaultEvent(
                index, "read", FaultKind.LATENCY_SPIKE, pages=tuple(pages),
                delay_us=plan.latency_spike_us,
            ))
        return None

    def on_write(self, pages: tuple[int, ...]) -> FaultEvent | None:
        """Decide the fate of one write batch over ``pages`` (in order)."""
        plan = self.plan
        self.operations += 1
        index = self.operations
        bad = plan.media_error_pages.intersection(pages)
        if bad:
            good = tuple(page for page in pages if page not in bad)
            return self._record(FaultEvent(
                index, "write", FaultKind.PERMANENT_MEDIA,
                pages=tuple(sorted(bad)), acknowledged=good,
            ))
        rng = self.rng
        if plan.write_error_rate and rng.random() < plan.write_error_rate:
            return self._record(FaultEvent(
                index, "write", FaultKind.TRANSIENT_WRITE, pages=tuple(pages),
            ))
        if (
            plan.torn_batch_rate
            and len(pages) > 1
            and rng.random() < plan.torn_batch_rate
        ):
            # A proper prefix lands: at least one page written, one lost.
            cut = rng.randrange(1, len(pages))
            return self._record(FaultEvent(
                index, "write", FaultKind.TORN_BATCH,
                pages=tuple(pages[cut:]), acknowledged=tuple(pages[:cut]),
            ))
        if (
            plan.misdirected_write_rate
            and rng.random() < plan.misdirected_write_rate
        ):
            victim = pages[rng.randrange(len(pages))]
            rest = tuple(page for page in pages if page != victim)
            return self._record(FaultEvent(
                index, "write", FaultKind.MISDIRECTED_WRITE,
                pages=(victim,), acknowledged=rest,
            ))
        if plan.lost_write_rate and rng.random() < plan.lost_write_rate:
            victim = pages[rng.randrange(len(pages))]
            rest = tuple(page for page in pages if page != victim)
            return self._record(FaultEvent(
                index, "write", FaultKind.LOST_WRITE,
                pages=(victim,), acknowledged=rest,
            ))
        if plan.latency_spike_rate and rng.random() < plan.latency_spike_rate:
            return self._record(FaultEvent(
                index, "write", FaultKind.LATENCY_SPIKE, pages=tuple(pages),
                delay_us=plan.latency_spike_us,
            ))
        return None

    def _record(self, event: FaultEvent) -> FaultEvent:
        self.events.append(event)
        return event

    def __repr__(self) -> str:
        return (
            f"FaultInjector(seed={self.plan.seed}, ops={self.operations}, "
            f"faults={len(self.events)})"
        )
