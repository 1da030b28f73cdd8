"""Configuration for the overload-resilient serving layer.

All time quantities are **virtual microseconds** on the shared
:class:`~repro.storage.clock.VirtualClock` — the source census admits no
wall clock anywhere in this package, which is what keeps every admission,
deadline, and breaker decision byte-reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BreakerConfig", "ServingConfig", "SHED_POLICIES"]

#: The load-shedding policies the admission queue understands.
SHED_POLICIES = ("drop-newest", "drop-oldest", "client-fair")


@dataclass(frozen=True)
class BreakerConfig:
    """Latency-triggered circuit breaker over ACE batch sizes.

    The breaker watches a rolling window of request latencies.  When the
    window p99 exceeds ``p99_threshold_us`` it *trips*: ACE's write-back /
    eviction batches are degraded to ``degraded_n_w`` / ``degraded_n_e``
    (a full ``n_w``-page batch stalls the triggering request and everything
    queued behind it, so under a latency spike smaller batches cut the
    tail).  After ``cooldown_us`` of degraded running the breaker restores
    full batching on probation; ``probation`` clean evaluations close it
    again, another threshold breach re-trips it.

    Parameters
    ----------
    p99_threshold_us:
        Window p99 above which the breaker trips.
    window:
        Number of most-recent request latencies evaluated.
    min_samples:
        Evaluations are suppressed until the window holds this many
        samples (avoids tripping on the first slow request).
    eval_every:
        Evaluate the window p99 every that-many completions (the window
        itself is updated on every completion).
    cooldown_us:
        Virtual time to stay tripped (degraded) before probing recovery.
    probation:
        Clean evaluations required in the half-open state before the
        breaker fully closes.
    degraded_n_w, degraded_n_e:
        Batch sizes applied while tripped (clamped to the manager's
        configured sizes).
    """

    p99_threshold_us: float = 5_000.0
    window: int = 256
    min_samples: int = 32
    eval_every: int = 8
    cooldown_us: float = 50_000.0
    probation: int = 4
    degraded_n_w: int = 1
    degraded_n_e: int = 1

    def __post_init__(self) -> None:
        if self.p99_threshold_us <= 0:
            raise ValueError("p99 threshold must be positive")
        if self.window < 1 or self.min_samples < 1 or self.eval_every < 1:
            raise ValueError("window, min_samples and eval_every must be >= 1")
        if self.min_samples > self.window:
            raise ValueError("min_samples cannot exceed the window size")
        if self.cooldown_us <= 0:
            raise ValueError("cooldown must be positive")
        if self.probation < 1:
            raise ValueError("probation must be >= 1")
        if self.degraded_n_w < 1 or self.degraded_n_e < 1:
            raise ValueError("degraded batch sizes must be >= 1")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the request-serving layer.

    Parameters
    ----------
    queue_capacity:
        Bound of the admission queue.  Arrivals beyond it are shed
        according to ``shed_policy``.
    deadline_us:
        Per-request deadline, charged from *arrival* on the virtual clock.
        A request still queued past its deadline is dropped (``expired``);
        one that completes past it counts as ``completed_late`` and does
        not contribute to goodput.  ``0`` disables deadlines.
    shed_policy:
        ``"drop-newest"`` rejects the incoming request when the queue is
        full; ``"drop-oldest"`` evicts the head (oldest queued) to admit
        the newcomer; ``"client-fair"`` drops the newest request of the
        client holding the most queue slots (deterministic tie-break on
        the lower client id), so one aggressive session cannot starve the
        rest.
    arrival_interval_us:
        Open-loop arrival pacing: request ``i`` arrives at
        ``start + i * arrival_interval_us`` regardless of service progress
        (how offered load above capacity is modelled).  ``0`` selects the
        closed-loop model: the next request arrives when the server frees
        up, so the queue never overflows and shedding never engages.
    max_attempts:
        Dispatch attempts per request.  ``PoolExhaustedError`` and
        *transient* ``IOFaultError`` outcomes requeue the request with
        capped exponential backoff (below); permanent faults fail it
        immediately.
    requeue_backoff_us, requeue_backoff_multiplier, requeue_backoff_cap_us:
        Backoff schedule between dispatch attempts, charged to the virtual
        clock while the server keeps serving other requests: attempt ``k``
        (1-based) waits ``min(cap, base * multiplier**(k-1))``.
    pressure_threshold:
        Admission gate on :attr:`BufferPoolManager.pool_pressure`: when the
        fraction of pinned-or-dirty frames is at or above this value, new
        arrivals are shed before touching the queue.  ``None`` (default)
        disables the gate.
    breaker:
        Optional :class:`BreakerConfig`; ``None`` runs without a breaker.
    """

    queue_capacity: int = 64
    deadline_us: float = 50_000.0
    shed_policy: str = "drop-newest"
    arrival_interval_us: float = 0.0
    max_attempts: int = 4
    requeue_backoff_us: float = 200.0
    requeue_backoff_multiplier: float = 2.0
    requeue_backoff_cap_us: float = 5_000.0
    pressure_threshold: float | None = None
    breaker: BreakerConfig | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be positive")
        if self.deadline_us < 0:
            raise ValueError("deadline cannot be negative")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )
        if self.arrival_interval_us < 0:
            raise ValueError("arrival interval cannot be negative")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.requeue_backoff_us < 0 or self.requeue_backoff_cap_us < 0:
            raise ValueError("backoff times cannot be negative")
        if self.requeue_backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1.0")
        if self.pressure_threshold is not None and not (
            0.0 < self.pressure_threshold <= 1.0
        ):
            raise ValueError("pressure threshold must be in (0, 1]")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retrying after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based: {attempt}")
        backoff = self.requeue_backoff_us * (
            self.requeue_backoff_multiplier ** (attempt - 1)
        )
        return min(backoff, self.requeue_backoff_cap_us)
