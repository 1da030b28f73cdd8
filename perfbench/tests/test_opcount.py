"""The opcode count is exact, and it moves only when the layer is used.

The "does it measure" test: slow one layer down by a known number of
opcodes per call and require the benchmark to report exactly that, on the
workload that uses the layer and nowhere else.
"""

from functools import partial

import pytest

from repro.prefetch.history import HistoryPrefetcher
from repro.storage.device import SimulatedSSD

from perfbench.layers import trace_layers
from perfbench.opcount import count_opcodes
from perfbench.workloads import SPECS, make_run

SCALE = 0.02
SPIN = 400


def slowed(original, spin=SPIN):
    """``original`` preceded by a fixed-opcode spin."""

    def slow(*args, **kwargs):
        for _ in range(spin):
            pass
        return original(*args, **kwargs)

    return slow


def _noop(*args, **kwargs):
    return None


#: Opcodes one slowed call executes beyond the call it wraps.
SPIN_COST = count_opcodes(partial(slowed(_noop), None, 0)) - count_opcodes(
    partial(_noop, None, 0)
)


def _count(workload):
    """(opcodes, accesses, device write batches) of the opcode pass."""
    run = make_run(SPECS[workload], seed=42, passes=2, scale=SCALE)
    before = run.manager.device.stats.write_batches
    opcodes, ops = run.count_opcodes()
    return opcodes, ops, run.manager.device.stats.write_batches - before


def test_spin_cost_is_a_fixed_count():
    assert SPIN_COST > SPIN
    assert SPIN_COST == count_opcodes(
        partial(slowed(_noop), None, 0)
    ) - count_opcodes(partial(_noop, None, 0))


@pytest.mark.parametrize("workload", ["ms_base", "ms_acepf", "tpcc_durable"])
def test_two_runs_count_the_identical_integer(workload):
    run_a = make_run(SPECS[workload], seed=42, passes=2, scale=SCALE)
    run_b = make_run(SPECS[workload], seed=42, passes=2, scale=SCALE)
    assert run_a.count_opcodes() == run_b.count_opcodes()


def test_slowing_the_history_prefetcher_moves_only_its_workload(monkeypatch):
    plain = {w: _count(w) for w in ("ms_acepf", "ms_base")}
    monkeypatch.setattr(
        HistoryPrefetcher, "observe", slowed(HistoryPrefetcher.observe)
    )
    slow = {w: _count(w) for w in ("ms_acepf", "ms_base")}
    opcodes, ops, _ = plain["ms_acepf"]
    # ``observe`` runs once per access, hit or miss.
    assert slow["ms_acepf"][0] - opcodes == SPIN_COST * ops
    assert slow["ms_base"] == plain["ms_base"]


def test_slowing_device_write_batches_moves_only_its_workload(monkeypatch):
    plain = {w: _count(w) for w in ("ms_ace", "fit_hits")}
    monkeypatch.setattr(
        SimulatedSSD, "write_batch", slowed(SimulatedSSD.write_batch)
    )
    slow = {w: _count(w) for w in ("ms_ace", "fit_hits")}
    opcodes, _, batches = plain["ms_ace"]
    assert batches > 0
    assert slow["ms_ace"][0] - opcodes == SPIN_COST * batches
    assert slow["fit_hits"] == plain["fit_hits"]


def test_traced_self_time_rises_in_the_slowed_layer_only(monkeypatch):
    plain = trace_layers("ms_acepf", seed=42, scale=0.05).metrics
    # About 40 us per call against a ~1 us layer: far outside timing noise.
    monkeypatch.setattr(
        HistoryPrefetcher, "observe", slowed(HistoryPrefetcher.observe, spin=4000)
    )
    slow = trace_layers("ms_acepf", seed=42, scale=0.05).metrics
    assert slow["prefetch.observe_ns"] > 5 * plain["prefetch.observe_ns"]
    for sibling in ("prefetch.suggest_ns", "prefetch.on_miss_ns",
                    "core.writer.flush_ns", "storage.device.read_ns"):
        assert slow[sibling] < 3 * plain[sibling], sibling
