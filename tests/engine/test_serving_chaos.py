"""Chaos + serving: deterministic breaker ticks, zero committed loss.

The two satellite guarantees under test:

* the breaker's trip/restore/recover ticks are a pure function of
  (trace, config, fault plan) — same seed, same ticks, tick for tick;
* with shedding actively dropping work under overload *and* faults
  injected *and* a mid-run crash, recovery still loses zero committed
  updates — shedding only ever drops unadmitted work, never work a WAL
  commit point already covered.
"""

import pytest

from repro.bench.chaos import SMOKE_SERVING as SHED_CONFIG
from repro.bench.chaos import run_cell
from repro.bench.runner import StackConfig, build_stack
from repro.engine.executor import ExecutionOptions, run_trace
from repro.engine.serving import BreakerConfig, ServingConfig
from repro.faults import FaultPlan
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import WorkloadSpec, generate_trace

SPEC = WorkloadSpec("chaos-serving", read_fraction=0.3, locality=(0.9, 0.1))


def breaker_run(seed=7):
    """One spiky near-saturation serving run with an aggressive breaker."""
    plan = FaultPlan.spikes(0.02, spike_us=3_000.0, seed=seed)
    options = ExecutionOptions(cpu_us_per_op=2.0)
    config = StackConfig(
        profile=PCIE_SSD,
        policy="lru",
        variant="ace",
        num_pages=1_000,
        n_w=4 * PCIE_SSD.k_w,
        n_e=4 * PCIE_SSD.k_w,
        fault_plan=plan,
        options=options,
    )
    trace = generate_trace(SPEC, 1_000, 2_500, seed=seed)
    # Threshold low enough that queueing under the mistuned batches trips
    # it; cooldown short enough that restore/recover happen in-run.
    serving = ServingConfig(
        queue_capacity=128,
        deadline_us=0.0,
        arrival_interval_us=90.0,
        breaker=BreakerConfig(
            p99_threshold_us=1_500.0,
            window=64,
            min_samples=16,
            eval_every=4,
            cooldown_us=20_000.0,
            probation=2,
            degraded_n_w=PCIE_SSD.k_w,
            degraded_n_e=PCIE_SSD.k_w,
        ),
    )
    manager = build_stack(config)
    metrics = run_trace(manager, trace, options=options, serving=serving)
    return metrics.serving


class TestBreakerDeterminism:
    def test_same_seed_same_ticks(self):
        first = breaker_run()
        second = breaker_run()
        assert first.breaker_trips, "scenario must actually trip the breaker"
        assert first.breaker_trips == second.breaker_trips
        assert first.breaker_restores == second.breaker_restores
        assert first.breaker_recoveries == second.breaker_recoveries
        assert first.summary() == second.summary()

    def test_breaker_cycles_through_restore(self):
        serving = breaker_run()
        # The short cooldown guarantees at least one full
        # OPEN -> HALF_OPEN transition inside the run.
        assert serving.breaker_restores
        assert len(serving.breaker_trips) >= len(serving.breaker_recoveries)


class TestZeroCommittedLossUnderShedding:
    @pytest.mark.parametrize("variant", ["baseline", "ace"])
    def test_crash_recover_audit_with_shedding(self, variant):
        cell = run_cell(
            "lru", variant, 0.01, num_pages=800, ops=2_400,
            serving=SHED_CONFIG,
        )
        assert cell.shed > 0, "overload pacing must actually shed"
        assert cell.committed_updates > 0
        assert cell.lost_updates == 0
        assert cell.error is None
        assert cell.ok

    def test_serving_cell_matches_itself(self):
        first = run_cell("lru", "ace", 0.01, num_pages=800, ops=2_400,
                         serving=SHED_CONFIG)
        second = run_cell("lru", "ace", 0.01, num_pages=800, ops=2_400,
                          serving=SHED_CONFIG)
        assert first == second

    def test_plain_cell_unaffected_by_serving_support(self):
        cell = run_cell("lru", "ace", 0.0, num_pages=800, ops=2_400)
        assert cell.ok
        assert cell.shed == 0
        assert cell.expired == 0
        assert cell.requeued == 0
