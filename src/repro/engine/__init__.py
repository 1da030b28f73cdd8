"""Execution substrate: database layout, trace execution, metrics."""

from repro.bufferpool.database import AppendCursor, Database, Relation
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.latency import LatencyRecorder
from repro.engine.metrics import RunMetrics, percent_delta, speedup
from repro.engine.multiclient import interleave_traces
from repro.engine.serving import (
    BreakerConfig,
    CircuitBreaker,
    ServingConfig,
    ServingLayer,
    ServingMetrics,
)

__all__ = [
    "Database",
    "Relation",
    "AppendCursor",
    "ExecutionOptions",
    "run_trace",
    "run_transactions",
    "RunMetrics",
    "speedup",
    "percent_delta",
    "interleave_traces",
    "LatencyRecorder",
    "BreakerConfig",
    "CircuitBreaker",
    "ServingConfig",
    "ServingLayer",
    "ServingMetrics",
]
