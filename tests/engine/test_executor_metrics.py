"""Tests for the executor and run metrics."""

import pytest

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.metrics import RunMetrics, percent_delta, speedup
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import PageRequest, Trace

PROFILE = DeviceProfile(
    name="exec-test", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)


def make_manager(capacity=8, num_pages=64, wal=False):
    device = SimulatedSSD(PROFILE, num_pages=num_pages)
    device.format_pages(range(num_pages))
    log = WriteAheadLog(device.clock) if wal else None
    return BufferPoolManager(capacity, LRUPolicy(), device, wal=log)


class TestRunTrace:
    def test_counts_and_time(self):
        manager = make_manager()
        trace = Trace([0, 1, 0], [False, False, False])
        metrics = run_trace(manager, trace, options=ExecutionOptions(cpu_us_per_op=10))
        assert metrics.ops == 3
        # 2 misses (200us) + 3 * 10us CPU.
        assert metrics.elapsed_us == pytest.approx(230.0)
        assert metrics.io_time_us == pytest.approx(200.0)
        assert metrics.cpu_time_us == pytest.approx(30.0)
        assert metrics.buffer.hits == 1

    def test_zero_cpu_cost(self):
        manager = make_manager()
        trace = Trace([0, 0], [False, False])
        metrics = run_trace(manager, trace, options=ExecutionOptions(cpu_us_per_op=0))
        assert metrics.elapsed_us == pytest.approx(100.0)

    def test_background_writer_invoked(self):
        manager = make_manager(capacity=16)
        writer = BackgroundWriter(manager, pages_per_round=4)
        trace = Trace(
            [p % 16 for p in range(200)], [True] * 200
        )
        options = ExecutionOptions(cpu_us_per_op=2, bg_writer_interval_us=500)
        run_trace(manager, trace, options=options, bg_writer=writer)
        assert writer.rounds > 0
        assert manager.stats.background_writebacks > 0

    def test_checkpointer_invoked(self):
        manager = make_manager(capacity=16)
        checkpointer = Checkpointer(manager, interval_us=1000)
        trace = Trace([p % 16 for p in range(100)], [True] * 100)
        run_trace(manager, trace, checkpointer=checkpointer)
        assert checkpointer.checkpoints_taken > 0

    def test_default_label(self):
        manager = make_manager()
        metrics = run_trace(manager, Trace([0], [False], name="t"))
        assert metrics.label == "baseline/t"

    def test_warmup_excluded_from_measurement(self):
        manager = make_manager(capacity=8)
        trace = Trace([0, 1, 2, 0, 1, 2], [False] * 6)
        metrics = run_trace(
            manager, trace, options=ExecutionOptions(cpu_us_per_op=0),
            warmup_ops=3,
        )
        # After the warmup pass the three pages are resident: all hits.
        assert metrics.ops == 3
        assert metrics.buffer.misses == 0
        assert metrics.elapsed_us == pytest.approx(0.0)

    def test_warmup_must_leave_measured_ops(self):
        manager = make_manager()
        trace = Trace([0], [False])
        with pytest.raises(ValueError):
            run_trace(manager, trace, warmup_ops=1)

    def test_ftl_counters_captured(self):
        device = SimulatedSSD(PROFILE, num_pages=64, with_ftl=True)
        device.format_pages(range(64))
        manager = BufferPoolManager(4, LRUPolicy(), device)
        trace = Trace([p % 64 for p in range(300)], [True] * 300)
        metrics = run_trace(manager, trace)
        assert metrics.ftl is not None
        assert metrics.physical_writes >= metrics.logical_writes


class TestRunTransactions:
    def test_transaction_counting(self):
        manager = make_manager()
        stream = [
            (TransactionType.NEW_ORDER, [PageRequest(0, True)]),
            (TransactionType.PAYMENT, [PageRequest(1, True)]),
            (TransactionType.NEW_ORDER, [PageRequest(2, False)]),
        ]
        metrics = run_transactions(manager, stream)
        assert metrics.transactions == 3
        assert metrics.new_order_transactions == 2
        assert metrics.ops == 3

    def test_commit_flushes_wal(self):
        manager = make_manager(wal=True)
        stream = [(TransactionType.PAYMENT, [PageRequest(0, True)])]
        metrics = run_transactions(manager, stream)
        assert manager.wal.pages_written == 1
        assert metrics.wal_pages_written == 1

    def test_tpmc_computation(self):
        metrics = RunMetrics(
            label="x", elapsed_us=60e6, ops=10,
            transactions=100, new_order_transactions=45,
        )
        assert metrics.tpmc == pytest.approx(45.0)
        assert metrics.tpm == pytest.approx(100.0)

    def test_cpu_per_transaction_charged(self):
        manager = make_manager()
        stream = [(TransactionType.PAYMENT, [])]
        options = ExecutionOptions(cpu_us_per_op=0, cpu_us_per_transaction=50)
        metrics = run_transactions(manager, stream, options=options)
        assert metrics.elapsed_us == pytest.approx(50.0)


class TestMetricsHelpers:
    def test_speedup(self):
        base = RunMetrics(label="b", elapsed_us=200.0, ops=1)
        fast = RunMetrics(label="f", elapsed_us=100.0, ops=1)
        assert speedup(base, fast) == pytest.approx(2.0)

    def test_speedup_zero_rejected(self):
        base = RunMetrics(label="b", elapsed_us=200.0, ops=1)
        broken = RunMetrics(label="f", elapsed_us=0.0, ops=1)
        with pytest.raises(ValueError):
            speedup(base, broken)

    def test_percent_delta(self):
        assert percent_delta(100.0, 101.0) == pytest.approx(1.0)
        assert percent_delta(100.0, 99.0) == pytest.approx(-1.0)
        assert percent_delta(0.0, 5.0) == 0.0

    def test_derived_rates(self):
        metrics = RunMetrics(label="x", elapsed_us=2e6, ops=1000)
        assert metrics.runtime_s == pytest.approx(2.0)
        assert metrics.ops_per_second == pytest.approx(500.0)

    def test_zero_elapsed_rates(self):
        metrics = RunMetrics(label="x", elapsed_us=0.0, ops=0)
        assert metrics.ops_per_second == 0.0
        assert metrics.tps == 0.0
        assert metrics.tpmc == 0.0

    def test_summary_contains_label(self):
        metrics = RunMetrics(label="mylabel", elapsed_us=1e6, ops=5)
        assert "mylabel" in metrics.summary()

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(cpu_us_per_op=-1)
        with pytest.raises(ValueError):
            ExecutionOptions(bg_writer_interval_us=0)

    @pytest.mark.parametrize(
        "field",
        [
            "cpu_us_per_op",
            "cpu_us_per_transaction",
            "bg_writer_interval_us",
            "checkpoint_interval_us",
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_options_refuse_non_finite_times(self, field, bad):
        # They reach the clock (CLI --cpu-us): a NaN there stops every
        # deadline comparison without an error.
        with pytest.raises(ValueError, match=f"{field} must be finite: {bad}"):
            ExecutionOptions(**{field: bad})
