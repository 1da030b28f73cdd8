"""Benchmark harness: experiment runner, statistical repeats, reports, plots."""

from repro.bench.plot import heatmap, line_chart
from repro.bench.repeats import ReplicatedResult, replicate_speedup
from repro.bench.report import format_series, format_table, results_dir, write_report
from repro.bench.runner import (
    VARIANTS,
    StackConfig,
    build_stack,
    compare_policies,
    run_config,
    run_config_transactions,
)
from repro.bench.summary import assemble_experiments_md

__all__ = [
    "StackConfig",
    "build_stack",
    "run_config",
    "run_config_transactions",
    "compare_policies",
    "VARIANTS",
    "format_table",
    "format_series",
    "results_dir",
    "write_report",
    "line_chart",
    "heatmap",
    "ReplicatedResult",
    "replicate_speedup",
    "assemble_experiments_md",
]
