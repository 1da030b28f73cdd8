"""Workload substrate: traces, synthetic mixes, YCSB, TPC-C."""

from repro.workloads.synthetic import MS, PAPER_WORKLOADS, WIS, generate_trace
from repro.workloads.trace import Trace

__all__ = [
    "Trace",
    "MS",
    "WIS",
    "PAPER_WORKLOADS",
    "generate_trace",
]
