"""Serving-layer accounting: admission outcomes, per-client tails, goodput.

Every count is an exact integer over virtual-time events, so two runs of
the same (trace, config, fault plan) produce identical metrics — the
overload harness and the chaos tests assert on that.
"""

from __future__ import annotations

from repro.engine.latency import LatencyRecorder

__all__ = ["ClientStats", "ServingMetrics"]


class ClientStats:
    """Per-client-session slice of the serving counters."""

    __slots__ = (
        "client",
        "offered",
        "admitted",
        "shed",
        "expired",
        "completed",
        "completed_late",
        "failed",
        "latency",
    )

    def __init__(self, client: int) -> None:
        self.client = client
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.expired = 0
        self.completed = 0
        self.completed_late = 0
        self.failed = 0
        #: Arrival-to-completion latency of completed requests (queue wait
        #: + requeue backoff + service time, all virtual).
        self.latency = LatencyRecorder()

    @property
    def on_time(self) -> int:
        return self.completed - self.completed_late

    def summary(self) -> dict[str, float]:
        return {
            "client": float(self.client),
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "expired": float(self.expired),
            "completed": float(self.completed),
            "completed_late": float(self.completed_late),
            "failed": float(self.failed),
            "p50_us": self.latency.p50_us,
            "p99_us": self.latency.p99_us,
        }


class ServingMetrics:
    """Aggregate outcome of one serving run.

    Request accounting is a partition: every offered request ends up in
    exactly one of ``shed``, ``expired``, ``failed``, or ``completed``
    (``completed_late`` is the subset of ``completed`` that missed its
    deadline).  ``requeued`` counts backoff round-trips, not requests.
    """

    def __init__(self) -> None:
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        #: Subset of ``shed`` caused by the pool-pressure admission gate
        #: (the rest is queue overflow).
        self.shed_pressure = 0
        self.expired = 0
        self.completed = 0
        self.completed_late = 0
        self.failed = 0
        #: Requeue events (a request failing twice counts twice).
        self.requeued = 0
        self.latency = LatencyRecorder()
        self.per_client: dict[int, ClientStats] = {}
        self.queue_peak = 0
        self.elapsed_us = 0.0
        #: Transactions completed / shed (transaction-mode runs only).
        self.transactions_completed = 0
        #: Breaker event ticks, each ``(virtual_time_us, completed_count)``:
        #: ``trips`` = CLOSED/HALF_OPEN -> OPEN, ``restores`` = OPEN ->
        #: HALF_OPEN (full batching back on probation), ``recoveries`` =
        #: HALF_OPEN -> CLOSED.
        self.breaker_trips: list[tuple[float, int]] = []
        self.breaker_restores: list[tuple[float, int]] = []
        self.breaker_recoveries: list[tuple[float, int]] = []
        #: Per-page completed-write versions at the last WAL flush: the
        #: ledger the chaos harness audits against when shedding means the
        #: raw trace prefix no longer describes what actually executed.
        self.committed_versions: dict[int, int] = {}

    def client(self, client: int) -> ClientStats:
        stats = self.per_client.get(client)
        if stats is None:
            stats = self.per_client[client] = ClientStats(client)
        return stats

    # ----------------------------------------------------------- derived

    @property
    def on_time(self) -> int:
        """Completions that met their deadline (the goodput numerator)."""
        return self.completed - self.completed_late

    @property
    def goodput_per_s(self) -> float:
        """On-time completions per virtual second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.on_time / (self.elapsed_us / 1e6)

    @property
    def offered_per_s(self) -> float:
        """Offered load in requests per virtual second."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.offered / (self.elapsed_us / 1e6)

    def summary(self) -> dict[str, float]:
        return {
            "offered": float(self.offered),
            "admitted": float(self.admitted),
            "shed": float(self.shed),
            "shed_pressure": float(self.shed_pressure),
            "expired": float(self.expired),
            "requeued": float(self.requeued),
            "completed": float(self.completed),
            "completed_late": float(self.completed_late),
            "failed": float(self.failed),
            "queue_peak": float(self.queue_peak),
            "p50_us": self.latency.p50_us,
            "p99_us": self.latency.p99_us,
            "goodput_per_s": self.goodput_per_s,
            "offered_per_s": self.offered_per_s,
            "breaker_trips": float(len(self.breaker_trips)),
        }

    def __repr__(self) -> str:
        return (
            f"ServingMetrics(offered={self.offered}, "
            f"completed={self.completed} ({self.on_time} on time), "
            f"shed={self.shed}, expired={self.expired}, "
            f"failed={self.failed}, requeued={self.requeued})"
        )
