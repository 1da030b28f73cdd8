"""Exception hierarchy for the repro library."""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "ReproError",
    "BufferPoolError",
    "PoolExhaustedError",
    "PageNotBufferedError",
    "SanitizerError",
    "IOFaultError",
    "TornWriteError",
    "CorruptPageError",
    "RetriesExhaustedError",
    "PowerFailure",
    "NodeFailure",
    "ClusterReplayError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class PowerFailure(ReproError):
    """The simulated machine lost power at an I/O boundary.

    Raised by a :class:`~repro.faults.device.FaultyDevice` at a
    ``POWER_FAILURE`` event, after the batch's acknowledged prefix landed
    (the crash-point engine's schedule, :mod:`repro.verify.crashpoints`,
    is the injector that arms one), and by a torn WAL flush (the same
    schedule as the log's ``flush_hook``).  This is
    deliberately *not* an :class:`IOFaultError`: power loss is not a device
    fault the retry machinery may absorb — it must unwind the whole run so
    the harness can take a :func:`~repro.bufferpool.recovery.simulate_crash`
    image.

    ``boundary`` is the global write-boundary ordinal at which the power
    failed; ``site`` names the kind of boundary (``"data-write"``,
    ``"wal-flush"``, ``"wal-checkpoint"``, ``"redo-write"``).
    """

    def __init__(self, site: str, boundary: int, message: str = "") -> None:
        self.site = site
        self.boundary = boundary
        detail = f": {message}" if message else ""
        super().__init__(
            f"power failure at {site} boundary {boundary}{detail}"
        )


class BufferPoolError(ReproError):
    """Base class for buffer manager errors."""


class NodeFailure(ReproError):
    """A shard node died and its replica group could not absorb the loss.

    Raised by :mod:`repro.cluster.replication` when a primary crashes and
    no live replica remains to promote — the deterministic end of a
    replica group, not a transient worker accident.  Structured so the
    cluster engine (and callers catching the wrapping
    :class:`ClusterReplayError`) can key off the failure instead of
    parsing a traceback:

    ``shard``/``node``
        The replica-group member that took the group down.
    ``virtual_time_us``
        The shard group's virtual clock when the crash was detected.
    ``cause``
        Short text: what killed the node and why no failover was
        possible.
    ``partial_metrics``
        The shard's :class:`~repro.engine.metrics.RunMetrics` up to the
        last commit boundary (``None`` when nothing committed) — the
        work the cluster verifiably completed before the loss.

    Instances cross the worker process boundary intact: ``__reduce__``
    rebuilds the exception from its structured fields, so the parent
    process sees the same shard/node/cause the worker raised.
    """

    def __init__(
        self,
        shard: int,
        node: int,
        virtual_time_us: float,
        cause: str,
        partial_metrics: object | None = None,
    ) -> None:
        self.shard = shard
        self.node = node
        self.virtual_time_us = virtual_time_us
        self.cause = cause
        self.partial_metrics = partial_metrics
        super().__init__(
            f"node {node} of shard {shard} failed at "
            f"t={virtual_time_us:.0f}us: {cause}"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.shard, self.node, self.virtual_time_us, self.cause,
             self.partial_metrics),
        )


class ClusterReplayError(ReproError):
    """A shard replay failed for good in a cluster run.

    Raised by :mod:`repro.cluster.engine` when a shard job still fails
    after its retry budget (fresh worker pools per round) is spent.  A
    cluster cannot drop a shard and keep reporting merged metrics — the
    aggregates would be silently missing that shard's work — so the
    whole run unwinds.  ``shard`` is the shard id, ``attempts`` the
    tries made, ``error`` the final failure rendered as text (the
    original exception object may not survive the process boundary).

    ``failure`` carries the structured :class:`NodeFailure` when the
    shard died deterministically inside a replica group (no retry can
    change a seeded fault schedule, so those wrap after one attempt);
    it is ``None`` for ordinary worker failures.
    """

    def __init__(
        self,
        shard: int,
        attempts: int,
        error: str,
        failure: NodeFailure | None = None,
    ) -> None:
        self.shard = shard
        self.attempts = attempts
        self.error = error
        self.failure = failure
        super().__init__(
            f"shard {shard} replay failed after {attempts} attempts: {error}"
        )


class PoolExhaustedError(BufferPoolError):
    """Raised when no frame can be freed (every candidate is pinned).

    Structured like :class:`SanitizerError` so tooling and logs can key off
    the failure: ``page`` is the request that could not be served,
    ``capacity`` the pool size, ``pinned`` how many resident pages were
    pinned at the time, and ``candidates_examined`` how many eviction
    candidates the raiser inspected before giving up (when the raiser knows
    them).  The serving layer uses ``pinned``/``capacity`` to decide
    between requeue (transient pin pressure) and shed.
    """

    def __init__(
        self,
        message: str,
        page: int | None = None,
        capacity: int | None = None,
        pinned: int | None = None,
        candidates_examined: int | None = None,
    ) -> None:
        self.page = page
        self.capacity = capacity
        self.pinned = pinned
        self.candidates_examined = candidates_examined
        context = []
        if page is not None:
            context.append(f"requested page {page}")
        if capacity is not None:
            context.append(f"pool capacity {capacity}")
        if pinned is not None:
            context.append(f"{pinned} pinned")
        if candidates_examined is not None:
            context.append(f"{candidates_examined} candidates examined")
        suffix = f" ({', '.join(context)})" if context else ""
        super().__init__(f"{message}{suffix}")


class PageNotBufferedError(BufferPoolError):
    """Raised when an operation requires a page to be resident and it is not."""


class SanitizerError(BufferPoolError):
    """A bufferpool invariant was violated (see ``repro.analyze.sanitizer``).

    Structured so tooling can key off the failure: ``invariant`` names the
    broken invariant, ``operation`` the public manager call after which it
    was detected, and ``page``/``frame`` the entity involved when known.
    """

    def __init__(
        self,
        invariant: str,
        operation: str,
        message: str,
        page: int | None = None,
        frame: int | None = None,
    ) -> None:
        self.invariant = invariant
        self.operation = operation
        self.page = page
        self.frame = frame
        location = ""
        if page is not None:
            location += f" (page {page}"
            location += f", frame {frame})" if frame is not None else ")"
        elif frame is not None:
            location += f" (frame {frame})"
        super().__init__(
            f"[{invariant}] after {operation}{location}: {message}"
        )


class IOFaultError(ReproError):
    """A device I/O operation failed (injected by :mod:`repro.faults`).

    Structured so the retry layer can act on it without string matching:

    ``op``
        ``"read"`` or ``"write"``.
    ``pages``
        The pages the failure applies to (sorted tuple).
    ``acknowledged``
        Pages of the same operation that *did* reach the device before the
        failure — non-empty for torn batches and for batches containing a
        mix of healthy and permanently bad pages.  Acknowledged writes are
        durable; the caller must mark them clean.
    ``permanent``
        ``True`` for media errors that no retry can fix.
    """

    def __init__(
        self,
        op: str,
        pages: Iterable[int],
        message: str,
        acknowledged: Iterable[int] = (),
        permanent: bool = False,
    ) -> None:
        self.op = op
        self.pages = tuple(pages)
        self.acknowledged = tuple(acknowledged)
        self.permanent = permanent
        pages_text = ",".join(map(str, self.pages[:8]))
        if len(self.pages) > 8:
            pages_text += ",..."
        super().__init__(f"{op} fault on page(s) [{pages_text}]: {message}")


class TornWriteError(IOFaultError):
    """A multi-page write batch landed only partially.

    ``acknowledged`` is the prefix of the batch (in submission order) that
    is durable on the device; ``pages`` are the writes that were lost.
    """

    def __init__(
        self,
        pages: Iterable[int],
        acknowledged: Iterable[int],
        message: str = "batch torn; only a prefix was written",
    ) -> None:
        super().__init__(
            "write", pages, message, acknowledged=acknowledged, permanent=False
        )


class CorruptPageError(IOFaultError):
    """A page's stored payload does not match its recorded checksum.

    Raised by a checksum-enabled :class:`~repro.storage.device.SimulatedSSD`
    when a read (or an explicit verify) finds the payload inconsistent with
    the device's out-of-band checksum metadata — the read-time detection
    half of the silent-corruption story.  Permanent by construction: no
    retry re-reads the bytes into health; the page must be *repaired* from
    a WAL redo image (:mod:`repro.bufferpool.repair`).

    ``stored_checksum`` is the checksum the device recorded for the page;
    ``computed_checksum`` is the checksum of the payload actually present.
    """

    def __init__(
        self,
        page: int,
        stored_checksum: int,
        computed_checksum: int,
        message: str = "checksum mismatch (silent corruption detected)",
    ) -> None:
        super().__init__("read", (page,), message, permanent=True)
        self.page = page
        self.stored_checksum = stored_checksum
        self.computed_checksum = computed_checksum


class RetriesExhaustedError(IOFaultError):
    """The retry policy gave up on an I/O operation.

    ``attempts`` is the number of attempts made; ``last_fault`` the final
    :class:`IOFaultError` observed (``None`` when the raiser aggregates
    several failures, e.g. "no clean eviction candidate").
    """

    def __init__(
        self,
        op: str,
        pages: Iterable[int],
        attempts: int,
        message: str,
        last_fault: IOFaultError | None = None,
    ) -> None:
        super().__init__(op, pages, f"{message} (after {attempts} attempts)")
        self.attempts = attempts
        self.last_fault = last_fault
