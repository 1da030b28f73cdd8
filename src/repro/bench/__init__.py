"""Benchmark harness: experiment runner, statistical repeats, reports, plots."""
