"""Execution substrate: database layout, trace execution, metrics."""

from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.metrics import speedup

__all__ = [
    "ExecutionOptions",
    "run_trace",
    "run_transactions",
    "speedup",
]
