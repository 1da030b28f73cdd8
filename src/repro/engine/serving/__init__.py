"""Overload-resilient request serving in front of the execution engine.

This package models the request layer of a loaded DBMS: bounded admission
queues, per-request deadlines, capped-backoff requeue of transient
failures, configurable load shedding, and a latency-triggered circuit
breaker that degrades ACE batch sizes under pressure.  Everything is
deterministic on the virtual clock — see ``docs/architecture.md``,
"Overload & admission control".
"""

from repro.engine.serving.breaker import CircuitBreaker
from repro.engine.serving.config import SHED_POLICIES, BreakerConfig, ServingConfig
from repro.engine.serving.layer import ServingLayer
from repro.engine.serving.metrics import ServingMetrics

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "ServingConfig",
    "ServingLayer",
    "ServingMetrics",
    "SHED_POLICIES",
]
