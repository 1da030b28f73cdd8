"""Tests for the serving layer: admission, deadlines, requeue, shedding."""

import pytest

from repro.bufferpool.background import IdleScrubber
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.engine.executor import ExecutionOptions, run_trace, run_transactions
from repro.engine.multiclient import interleave_traces
from repro.engine.serving import ServingConfig, ServingLayer, ServingMetrics
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile
from repro.workloads.tpcc.transactions import TransactionType
from repro.workloads.trace import PageRequest, Trace

PROFILE = DeviceProfile(
    name="serving-test", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)

OPTIONS = ExecutionOptions(cpu_us_per_op=10.0)


def make_manager(capacity=8, num_pages=64, wal=False, fault_plan=None,
                 retry=None):
    device = SimulatedSSD(PROFILE, num_pages=num_pages)
    device.format_pages(range(num_pages))
    if fault_plan is not None:
        device = FaultyDevice(device, fault_plan)
    log = WriteAheadLog(device.clock) if wal else None
    return BufferPoolManager(capacity, LRUPolicy(), device, wal=log,
                             retry=retry)


def mixed_trace(n=60, num_pages=64, client_ids=None):
    pages = [(i * 7) % num_pages for i in range(n)]
    writes = [i % 3 == 0 for i in range(n)]
    return Trace(pages, writes, name="mixed", client_ids=client_ids)


class TestClosedLoop:
    def test_all_requests_complete_without_shedding(self):
        manager = make_manager()
        trace = mixed_trace()
        metrics = run_trace(
            manager, trace, options=OPTIONS, serving=ServingConfig()
        )
        serving = metrics.serving
        assert isinstance(serving, ServingMetrics)
        assert serving.offered == len(trace)
        assert serving.completed == len(trace)
        assert serving.shed == 0
        assert serving.expired == 0
        assert serving.failed == 0
        assert metrics.ops == len(trace)

    def test_disabled_serving_leaves_metrics_unset(self):
        manager = make_manager()
        metrics = run_trace(manager, mixed_trace(), options=OPTIONS)
        assert metrics.serving is None

    def test_closed_loop_queue_never_overflows(self):
        manager = make_manager()
        config = ServingConfig(queue_capacity=1)
        metrics = run_trace(
            manager, mixed_trace(), options=OPTIONS, serving=config
        )
        assert metrics.serving.shed == 0
        assert metrics.serving.queue_peak == 1

    def test_latencies_forwarded_to_recorder(self):
        from repro.engine.latency import LatencyRecorder

        manager = make_manager()
        layer = ServingLayer(manager, ServingConfig())
        recorder = LatencyRecorder()
        layer.serve_trace(mixed_trace(), options=OPTIONS, latencies=recorder)
        assert recorder.count == 60


class TestOpenLoopOverload:
    def run_overloaded(self, shed_policy="drop-newest", deadline=0.0):
        manager = make_manager()
        # Service time is ~100us/miss; a 5us arrival interval is far past
        # saturation, so the bounded queue must shed.
        config = ServingConfig(
            queue_capacity=8,
            deadline_us=deadline,
            shed_policy=shed_policy,
            arrival_interval_us=5.0,
        )
        metrics = run_trace(
            manager, mixed_trace(n=200), options=OPTIONS, serving=config
        )
        return metrics.serving

    @pytest.mark.parametrize(
        "shed_policy", ["drop-newest", "drop-oldest", "client-fair"]
    )
    def test_overload_sheds_and_partitions(self, shed_policy):
        serving = self.run_overloaded(shed_policy)
        assert serving.offered == 200
        assert serving.shed > 0
        assert (
            serving.shed + serving.expired + serving.failed + serving.completed
            == serving.offered
        )

    def test_deadlines_expire_queued_requests(self):
        # A deadline shorter than the queue drain time expires stragglers.
        serving = self.run_overloaded(deadline=300.0)
        assert serving.expired > 0
        assert serving.on_time <= serving.completed

    def test_goodput_counts_only_on_time(self):
        serving = self.run_overloaded()
        assert serving.elapsed_us > 0
        assert serving.goodput_per_s == pytest.approx(
            serving.on_time / (serving.elapsed_us / 1e6)
        )
        assert serving.offered_per_s > serving.goodput_per_s


class TestIdleJump:
    def test_sub_tick_events_are_reached(self):
        # Arrivals every 100/3 us and wake-ups 0.1 x 1.5^k us after a
        # failure are not whole numbers of clock ticks.  The idle jump
        # must land at or after the event it jumps to: an advance by the
        # rounded difference stops a fraction of a tick short, sees the
        # same event still ahead, and never moves again.
        from repro.faults.retry import RetryPolicy

        plan = FaultPlan(seed=3, read_error_rate=0.3)
        manager = make_manager(capacity=64, fault_plan=plan,
                               retry=RetryPolicy(max_attempts=1))
        config = ServingConfig(
            arrival_interval_us=100 / 3,
            max_attempts=12,
            requeue_backoff_us=0.1,
            requeue_backoff_multiplier=1.5,
        )
        layer = ServingLayer(manager, config)
        clock = manager.device.clock
        admitted = []
        admit = layer._admit

        def recording_admit(request):
            admitted.append((clock.now_us, request.arrival_us))
            admit(request)

        layer._admit = recording_admit
        # Six requests per page: under capacity, so the server goes idle.
        trace = Trace([(i // 6) % 50 for i in range(300)], [False] * 300, name="r")
        serving = run_trace(
            manager, trace, options=OPTIONS, serving=layer
        ).serving
        assert len(admitted) == serving.offered == 300
        assert all(now_us >= arrival_us for now_us, arrival_us in admitted)
        assert serving.requeued > 0
        assert (
            serving.shed + serving.expired + serving.failed + serving.completed
            == serving.offered
        )


class TestRequeue:
    def test_pool_exhaustion_requeues_then_fails(self):
        manager = make_manager(capacity=4, num_pages=64)
        for page in range(4):
            manager.access(page, False)
            manager.pin(page)
        config = ServingConfig(max_attempts=3, requeue_backoff_us=50.0)
        trace = Trace([10, 11], [False, False], name="starved")
        metrics = run_trace(manager, trace, options=OPTIONS, serving=config)
        serving = metrics.serving
        assert serving.failed == 2
        assert serving.completed == 0
        # Each request retried (max_attempts - 1) times before failing.
        assert serving.requeued == 2 * (config.max_attempts - 1)

    def test_permanent_fault_fails_without_requeue(self):
        plan = FaultPlan(media_error_pages=frozenset({5}))
        manager = make_manager(fault_plan=plan)
        trace = Trace([5], [False], name="bad-page")
        metrics = run_trace(
            manager, trace, options=OPTIONS, serving=ServingConfig()
        )
        serving = metrics.serving
        assert serving.failed == 1
        assert serving.requeued == 0

    def test_transient_fault_requeues_and_recovers(self):
        # With the manager's own retry layer reduced to a single attempt,
        # transient read faults escape as (non-permanent)
        # RetriesExhaustedError and must be requeued by the serving layer;
        # the injector redraws per device operation, so a later dispatch
        # of the same page succeeds.
        from repro.faults.retry import RetryPolicy

        plan = FaultPlan(seed=3, read_error_rate=0.2)
        manager = make_manager(fault_plan=plan,
                               retry=RetryPolicy(max_attempts=1))
        trace = Trace([p % 32 for p in range(120)], [False] * 120, name="r")
        config = ServingConfig(max_attempts=10, requeue_backoff_us=20.0)
        metrics = run_trace(manager, trace, options=OPTIONS, serving=config)
        serving = metrics.serving
        assert serving.requeued > 0
        assert serving.completed + serving.failed == 120
        assert serving.completed > 100


class TestPerClientAttribution:
    def test_sessions_billed_separately(self):
        a = Trace([i % 16 for i in range(30)], [False] * 30, name="a")
        b = Trace([16 + i % 16 for i in range(20)], [True] * 20, name="b")
        merged = interleave_traces([a, b], mode="random", seed=3)
        manager = make_manager(num_pages=64)
        metrics = run_trace(
            manager, merged, options=OPTIONS, serving=ServingConfig()
        )
        per_client = metrics.serving.per_client
        assert set(per_client) == {0, 1}
        assert per_client[0].offered == 30
        assert per_client[1].offered == 20
        assert per_client[0].completed == 30
        assert per_client[1].completed == 20
        assert per_client[0].latency.count == 30

    def test_plain_trace_bills_client_zero(self):
        manager = make_manager()
        metrics = run_trace(
            manager, mixed_trace(), options=OPTIONS, serving=ServingConfig()
        )
        assert set(metrics.serving.per_client) == {0}


class TestPressureGate:
    def test_pressure_threshold_sheds_at_admission(self):
        manager = make_manager(capacity=4, num_pages=64)
        for page in range(4):
            manager.access(page, True)  # all frames dirty: pressure 1.0
        config = ServingConfig(pressure_threshold=0.5)
        trace = Trace([40], [False], name="gated")
        metrics = run_trace(manager, trace, options=OPTIONS, serving=config)
        serving = metrics.serving
        assert serving.shed == 1
        assert serving.shed_pressure == 1
        assert serving.completed == 0


class TestDeterminism:
    def scenario(self):
        plan = FaultPlan(seed=11, write_error_rate=0.05, latency_spike_rate=0.05)
        manager = make_manager(capacity=8, num_pages=64, fault_plan=plan)
        config = ServingConfig(
            queue_capacity=8,
            deadline_us=2_000.0,
            shed_policy="client-fair",
            arrival_interval_us=40.0,
        )
        a = Trace([i % 32 for i in range(80)], [i % 2 == 0 for i in range(80)])
        b = Trace([32 + i % 32 for i in range(40)], [False] * 40)
        merged = interleave_traces([a, b], mode="random", seed=5,
                                   weights="remaining")
        metrics = run_trace(manager, merged, options=OPTIONS, serving=config)
        return metrics.serving.summary()

    def test_identical_runs_identical_metrics(self):
        assert self.scenario() == self.scenario()


class TestExecutorWiring:
    def test_prebuilt_layer_accepted(self):
        manager = make_manager()
        layer = ServingLayer(manager, ServingConfig())
        metrics = run_trace(manager, mixed_trace(), options=OPTIONS,
                            serving=layer)
        assert metrics.serving is layer.metrics

    def test_layer_bound_to_other_manager_rejected(self):
        layer = ServingLayer(make_manager(), ServingConfig())
        with pytest.raises(ValueError):
            run_trace(make_manager(), mixed_trace(), options=OPTIONS,
                      serving=layer)


class TestScrubberUnderServing:
    """``run_trace(..., serving=cfg, scrubber=s)`` used to drop the scrubber:
    the serving branch forwarded the writer and the checkpointer only."""

    ROTTEN = (40, 45, 50, 63)  # pages the trace never touches

    def scrubbed_run(self, serving):
        device = SimulatedSSD(PROFILE, num_pages=64, checksums=True)
        device.format_pages(range(64))
        manager = BufferPoolManager(
            8, LRUPolicy(), device, wal=WriteAheadLog(device.clock)
        )
        for page in self.ROTTEN:
            device.corrupt_payload(page, "rot")
        scrubber = IdleScrubber(manager, interval_us=500.0, pages_per_round=8)
        trace = Trace(
            [(i * 7) % 32 for i in range(200)], [i % 3 == 0 for i in range(200)]
        )
        run_trace(
            manager, trace, options=OPTIONS, serving=serving, scrubber=scrubber
        )
        healed = [page for page in self.ROTTEN if device.verify_page(page)]
        return healed, scrubber.stats

    def test_the_scrubber_runs_and_heals_the_same_pages(self):
        healed, stats = self.scrubbed_run(ServingConfig())
        assert stats.rounds > 0
        assert healed == list(self.ROTTEN)
        assert stats.repaired == len(self.ROTTEN)
        # Closed loop, nothing shed: the clock — and so the scrubber —
        # steps exactly as it does under the plain stepped loop.
        assert (healed, stats) == self.scrubbed_run(None)


class TestServeTransactions:
    def stream(self, n=20):
        out = []
        for index in range(n):
            pages = [PageRequest((index * 3) % 32, True),
                     PageRequest((index * 3 + 1) % 32, False)]
            kind = (
                TransactionType.NEW_ORDER if index % 2 == 0
                else TransactionType.PAYMENT
            )
            out.append((kind, pages))
        return out

    def test_closed_loop_completes_all_transactions(self):
        manager = make_manager(wal=True)
        metrics = run_transactions(
            manager, self.stream(), options=OPTIONS, serving=ServingConfig()
        )
        serving = metrics.serving
        assert serving.transactions_completed == 20
        assert metrics.transactions == 20
        assert metrics.new_order_transactions == 10
        assert metrics.ops == 40
        assert serving.committed_versions  # commit snapshots recorded

    def test_open_loop_sheds_transactions(self):
        manager = make_manager(wal=True)
        config = ServingConfig(queue_capacity=4, arrival_interval_us=5.0)
        metrics = run_transactions(
            manager, self.stream(n=100), options=OPTIONS, serving=config
        )
        serving = metrics.serving
        assert serving.offered == 100
        assert serving.shed > 0
        assert (
            serving.shed + serving.expired + serving.failed + serving.completed
            == 100
        )
