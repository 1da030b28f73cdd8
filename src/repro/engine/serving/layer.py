"""The serving layer: deterministic request admission in front of a manager.

``ServingLayer`` models what sits between "millions of users" and the
bufferpool in a real system: per-client sessions whose requests arrive on
the virtual clock (open-loop pacing) or back-to-back (closed loop), wait in
a bounded admission queue, carry deadlines, are requeued with capped
backoff on transient failures (`PoolExhaustedError`, transient
``IOFaultError``), are shed under overload, and are watched by an optional
circuit breaker that degrades ACE batch sizes when tail latency spikes.

The admission unit is one page request of a trace.  The layer's one entry
is ``run_trace(..., serving=...)`` (a config, or a layer bound to the
manager), which opens the run session and hands it to
:meth:`ServingLayer.admit_trace`; the overload and chaos harnesses drive
it that way.  Each admitted request is one ``replay`` of its page.

Everything runs on the shared :class:`~repro.storage.clock.VirtualClock`;
given the same (trace, config, fault plan) two runs produce identical
metrics, queue decisions, and breaker ticks.  The layer is pay-for-what-
you-use: ``run_trace(..., serving=None)`` never touches this module's
hot path.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from repro.engine.executor import RunSession, replay
from repro.engine.latency import LatencyRecorder
from repro.engine.metrics import RunMetrics
from repro.engine.serving.breaker import CircuitBreaker
from repro.engine.serving.config import ServingConfig
from repro.engine.serving.metrics import ServingMetrics
from repro.engine.serving.queue import AdmissionQueue, Request
from repro.errors import IOFaultError, PoolExhaustedError
from repro.storage.clock import to_ticks
from repro.workloads.trace import Trace

__all__ = ["ServingLayer"]

_INF = float("inf")


class ServingLayer:
    """Serves a trace through a buffer manager, one request at a time."""

    def __init__(self, manager, config: ServingConfig | None = None) -> None:
        self.manager = manager
        self.config = config if config is not None else ServingConfig()
        #: Metrics of the most recent serve call.
        self.metrics: ServingMetrics | None = None

    def admit_trace(
        self,
        session: RunSession,
        trace: Trace,
        label: str | None,
        latencies: LatencyRecorder | None,
    ) -> RunMetrics:
        """Serve ``trace`` under admission control inside a run session.

        Each request is admitted, queued and executed on its own: a commit
        point every ``commit_every_ops`` completions, latencies forwarded
        to ``latencies``, and ``ops`` counts completions.  The trace's
        ``client_ids`` side-channel (see
        :func:`~repro.engine.multiclient.interleave_traces`) attributes
        requests to sessions; a plain trace is billed to client 0.
        """
        self._admit_requests(
            session, trace.pages, trace.writes, trace.client_ids, latencies
        )
        metrics = self.metrics
        # Every execution charged its CPU, a failed one (requeued or
        # failed for good) included.
        executed = metrics.completed + metrics.requeued + metrics.failed
        return session.finish(
            label
            if label is not None
            else f"{self.manager.variant}/{trace.name}+serving",
            ops=metrics.completed,
            cpu_ticks=to_ticks(session.options.cpu_us_per_op) * executed,
            serving=metrics,
        )

    # ---------------------------------------------------- the admission loop

    def _admit_requests(
        self,
        session: RunSession,
        pages: Sequence[int],
        writes: Sequence[bool],
        client_ids: Sequence[int] | None,
        latencies: LatencyRecorder | None,
    ) -> None:
        """Admit, queue and execute every request; the one admission loop."""
        manager = self.manager
        config = self.config
        options = session.options
        clock = session.clock
        start_us = session.start_us
        metrics = self._begin_run()
        queue = self._queue
        deferred = self._deferred
        versions = self._versions
        total = len(pages)
        interval = config.arrival_interval_us
        deadline_us = config.deadline_us if config.deadline_us > 0 else _INF
        op_ticks = to_ticks(options.cpu_us_per_op)
        commit_every = options.commit_every_ops
        wal = manager.wal
        since_commit = 0
        next_index = 0  # arrival pointer into the requests

        def arrive(index: int, arrival_us: float) -> None:
            self._admit(
                Request(
                    index,
                    client_ids[index] if client_ids else 0,
                    pages[index],
                    writes[index],
                    arrival_us,
                    arrival_us + deadline_us,
                )
            )

        while next_index < total or deferred or len(queue):
            now = clock.now_us
            # 1. Requeued requests whose backoff elapsed rejoin the queue.
            self._promote_deferred(now)
            # 2. Admit arrivals.
            if interval:
                while (
                    next_index < total
                    and start_us + next_index * interval <= now
                ):
                    arrive(next_index, start_us + next_index * interval)
                    next_index += 1
            elif not len(queue) and next_index < total:
                # Closed loop: the next request "arrives" as the server
                # frees up, so backpressure cannot build by construction.
                arrive(next_index, now)
                next_index += 1
            # 3. Nothing runnable: jump the clock to the next event.
            if not len(queue):
                next_event = _INF
                if deferred:
                    next_event = deferred[0][0]
                if interval and next_index < total:
                    next_event = min(
                        next_event, start_us + next_index * interval
                    )
                if next_event == _INF or next_event <= now:
                    continue
                clock.advance_to(next_event)
                continue
            # 4. Dispatch the queue head and execute it.  A failed request
            # was not applied: it is requeued unless the fault is permanent.
            request = queue.pop()
            if request.deadline_us <= now:
                self._expire(request)
                continue
            index = request.index
            try:
                replay(
                    manager, pages[index:index + 1], writes[index:index + 1],
                    op_ticks,
                )
            except (PoolExhaustedError, IOFaultError) as error:
                if isinstance(error, IOFaultError) and _is_permanent(error):
                    self._fail(request)
                else:
                    self._requeue_or_fail(request, clock.now_us)
                session.tick()
                continue
            if wal is not None and writes[index]:
                page = pages[index]
                versions[page] = versions.get(page, 0) + 1
            # 5. Complete, then maybe commit.
            self._complete(request, clock.now_us, latencies)
            if wal is not None and commit_every:
                since_commit += 1
                if since_commit >= commit_every:
                    wal.flush()  # commit point: durable prefix
                    metrics.committed_versions = dict(versions)
                    since_commit = 0
            session.tick()

        self._end_run(session.elapsed_us())

    # ------------------------------------------------------- run plumbing

    def _begin_run(self) -> ServingMetrics:
        config = self.config
        self.metrics = metrics = ServingMetrics()
        self._queue = AdmissionQueue(config.queue_capacity, config.shed_policy)
        #: Heap of (not_before_us, request index, request) — the index
        #: breaks time ties deterministically.
        self._deferred: list[tuple[float, int, Request]] = []
        self._versions: dict[int, int] = {}
        self._breaker = (
            CircuitBreaker(config.breaker, self.manager)
            if config.breaker is not None
            else None
        )
        return metrics

    def _end_run(self, elapsed_us: float) -> None:
        metrics = self.metrics
        metrics.elapsed_us = elapsed_us
        metrics.queue_peak = self._queue.peak
        if self._breaker is not None:
            metrics.breaker_trips = list(self._breaker.trips)
            metrics.breaker_restores = list(self._breaker.restores)
            metrics.breaker_recoveries = list(self._breaker.recoveries)
            self._breaker.finish()

    # ------------------------------------------------------ request steps

    def _admit(self, request: Request) -> None:
        metrics = self.metrics
        client = metrics.client(request.client)
        metrics.offered += 1
        client.offered += 1
        threshold = self.config.pressure_threshold
        if (
            threshold is not None
            and self.manager.pool_pressure >= threshold
        ):
            metrics.shed += 1
            metrics.shed_pressure += 1
            client.shed += 1
            return
        queue = self._queue
        if len(queue) >= queue.capacity:
            # Expired entries should not force shedding; sweep them first.
            for expired in queue.expire_due(self.manager.device.clock.now_us):
                self._expire(expired)
        victim = queue.offer(request)
        if victim is not request:
            metrics.admitted += 1
            client.admitted += 1
        if victim is not None:
            metrics.shed += 1
            metrics.client(victim.client).shed += 1

    def _promote_deferred(self, now_us: float) -> None:
        deferred = self._deferred
        while deferred and deferred[0][0] <= now_us:
            _, _, request = heapq.heappop(deferred)
            victim = self._queue.offer(request)
            if victim is not None:
                metrics = self.metrics
                metrics.shed += 1
                metrics.client(victim.client).shed += 1

    def _requeue_or_fail(self, request: Request, now_us: float) -> None:
        request.attempts += 1
        if request.attempts >= self.config.max_attempts:
            self._fail(request)
            return
        metrics = self.metrics
        metrics.requeued += 1
        request.not_before_us = now_us + self.config.backoff_for(request.attempts)
        heapq.heappush(
            self._deferred, (request.not_before_us, request.index, request)
        )

    def _expire(self, request: Request) -> None:
        metrics = self.metrics
        metrics.expired += 1
        metrics.client(request.client).expired += 1

    def _fail(self, request: Request) -> None:
        metrics = self.metrics
        metrics.failed += 1
        metrics.client(request.client).failed += 1

    def _complete(
        self,
        request: Request,
        now_us: float,
        latencies: LatencyRecorder | None,
    ) -> None:
        metrics = self.metrics
        client = metrics.client(request.client)
        latency = now_us - request.arrival_us
        metrics.completed += 1
        client.completed += 1
        if now_us > request.deadline_us:
            metrics.completed_late += 1
            client.completed_late += 1
        metrics.latency.record(latency)
        client.latency.record(latency)
        if latencies is not None:
            latencies.record(latency)
        if self._breaker is not None:
            self._breaker.observe(latency, now_us, metrics.completed)


def _is_permanent(fault: IOFaultError) -> bool:
    """Whether no retry/requeue can ever serve this request."""
    if fault.permanent:
        return True
    last = getattr(fault, "last_fault", None)
    return last is not None and last.permanent
