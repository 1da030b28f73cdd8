"""Workload substrate: traces, synthetic mixes, YCSB, TPC-C."""

from repro.workloads.synthetic import (
    MS,
    MU,
    PAPER_WORKLOADS,
    RIS,
    WIS,
    WorkloadSpec,
    generate_trace,
    rw_ratio_spec,
)
from repro.workloads.trace import PageRequest, Trace
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBConfig, generate_ycsb_trace

__all__ = [
    "YCSBConfig",
    "YCSB_WORKLOADS",
    "generate_ycsb_trace",
    "PageRequest",
    "Trace",
    "WorkloadSpec",
    "MS",
    "WIS",
    "RIS",
    "MU",
    "PAPER_WORKLOADS",
    "generate_trace",
    "rw_ratio_spec",
]
