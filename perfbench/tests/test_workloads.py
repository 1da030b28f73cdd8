"""Every workload at 1/50 size: checks pass, simulated results repeat."""

import pytest

from perfbench.measure import measure
from perfbench.workloads import SPECS, make_run

SCALE = 0.02
SIMULATED = ("virtual_runtime_s", "device_ios_per_kop")


@pytest.mark.parametrize("workload", list(SPECS))
def test_checks_pass_and_simulated_metrics_repeat(workload):
    first = measure(workload, seed=42, seconds=2, scale=SCALE)
    again = measure(workload, seed=42, seconds=2, scale=SCALE)
    other = measure(workload, seed=7, seconds=2, scale=SCALE)
    for report in (first, again, other):
        assert report.failures == []
        assert report.metrics["passed_share"] == 1.0
        assert all(value > 0 for value in report.metrics.values())
    for name in SIMULATED + ("opcodes_per_op",):
        assert first.metrics[name] == again.metrics[name]
    # The seed reaches the generators: another seed is another trace.
    assert any(first.metrics[name] != other.metrics[name] for name in SIMULATED)


def test_ace_without_prefetch_keeps_the_baseline_hits():
    hits = {}
    for name in ("ms_base", "ms_ace"):
        run = make_run(SPECS[name], seed=42, passes=2, scale=SCALE)
        metrics = run.execute(0)
        hits[name] = metrics.buffer.hits - run.warm_metrics.buffer.hits
        assert run.account(metrics).failures == []
    assert hits["ms_base"] == hits["ms_ace"] > 0


def test_pass_count_scales_with_seconds_not_with_the_clock():
    short = measure("ms_base", seed=42, seconds=1, scale=SCALE)
    longer = measure("ms_base", seed=42, seconds=3, scale=SCALE)
    assert (short.passes, longer.passes) == (4, 13)
    assert longer.metrics["virtual_runtime_s"] > short.metrics["virtual_runtime_s"]
