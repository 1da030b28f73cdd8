"""Tests for the latency-triggered circuit breaker state machine."""

import pytest

from repro.core.ace import ACEBufferPoolManager, ACEConfig
from repro.engine.serving import BreakerConfig, CircuitBreaker
from repro.faults import FaultPlan, FaultyDevice
from repro.policies.lru import LRUPolicy
from repro.prefetch import NPLPrefetcher
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD


class Hooks:
    """Fake manager recording the degraded-batching calls."""

    def __init__(self):
        self.entered = []
        self.exited = 0

    def enter_degraded_batching(self, n_w, n_e):
        self.entered.append((n_w, n_e))

    def exit_degraded_batching(self):
        self.exited += 1


def make_breaker(manager=None, **overrides):
    defaults = dict(
        p99_threshold_us=1_000.0,
        window=8,
        min_samples=4,
        eval_every=4,
        cooldown_us=100.0,
        probation=1,
        degraded_n_w=2,
        degraded_n_e=3,
    )
    defaults.update(overrides)
    return CircuitBreaker(
        BreakerConfig(**defaults), manager if manager is not None else Hooks()
    )


def feed(breaker, latency, count, start_us=0.0, step_us=1.0, completed_from=1):
    """Observe ``count`` completions of equal latency at 1us spacing."""
    for offset in range(count):
        breaker.observe(
            latency, start_us + offset * step_us, completed_from + offset
        )


class TestTrip:
    def test_trips_on_window_p99_over_threshold(self):
        hooks = Hooks()
        breaker = make_breaker(hooks)
        feed(breaker, 2_000.0, 4)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == [(3.0, 4)]
        assert hooks.entered == [(2, 3)]

    def test_no_trip_below_min_samples(self):
        breaker = make_breaker(min_samples=8, window=8)
        feed(breaker, 2_000.0, 4)  # eval_every reached, window too small
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == []

    def test_no_trip_between_eval_points(self):
        breaker = make_breaker()
        feed(breaker, 2_000.0, 3)  # below eval_every
        assert breaker.state == CircuitBreaker.CLOSED

    def test_clean_latencies_never_trip(self):
        hooks = Hooks()
        breaker = make_breaker(hooks)
        feed(breaker, 10.0, 64)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.trips == []
        assert hooks.entered == []


class TestRestoreAndRecover:
    def test_cooldown_restores_to_half_open(self):
        hooks = Hooks()
        breaker = make_breaker(hooks)  # cooldown 100us
        feed(breaker, 2_000.0, 4)  # trips at t=3
        breaker.observe(10.0, 50.0, 5)  # within cooldown: stays open
        assert breaker.state == CircuitBreaker.OPEN
        breaker.observe(10.0, 103.0, 6)  # past cooldown
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.restores == [(103.0, 6)]
        assert hooks.exited == 1

    def test_probation_closes_after_clean_evals(self):
        breaker = make_breaker(probation=2)
        feed(breaker, 2_000.0, 4)
        breaker.observe(10.0, 200.0, 5)  # restore
        # Two clean evaluations (4 samples each) close the breaker.
        feed(breaker, 10.0, 8, start_us=201.0, completed_from=6)
        assert breaker.state == CircuitBreaker.CLOSED
        assert len(breaker.recoveries) == 1

    def test_half_open_retrips_on_pressure(self):
        hooks = Hooks()
        breaker = make_breaker(hooks)
        feed(breaker, 2_000.0, 4)
        breaker.observe(10.0, 200.0, 5)  # restore (half-open)
        feed(breaker, 3_000.0, 4, start_us=201.0, completed_from=6)
        assert breaker.state == CircuitBreaker.OPEN
        assert len(breaker.trips) == 2
        assert hooks.entered == [(2, 3), (2, 3)]

    def test_finish_restores_full_batching(self):
        hooks = Hooks()
        breaker = make_breaker(hooks)
        feed(breaker, 2_000.0, 4)
        breaker.finish()
        assert hooks.exited == 1


class TestActuation:
    def make_ace(self, n_w=16, n_e=16):
        device = SimulatedSSD(PCIE_SSD, num_pages=64)
        device.format_pages(range(64))
        return ACEBufferPoolManager(
            8, LRUPolicy(), device, config=ACEConfig(n_w=n_w, n_e=n_e)
        )

    def test_ace_batches_degraded_and_restored(self):
        manager = self.make_ace()
        breaker = make_breaker(manager, degraded_n_w=2, degraded_n_e=3)
        feed(breaker, 2_000.0, 4)
        assert manager.batching_degraded
        assert manager.writer.n_w == 2
        assert manager.evictor.n_e == 3
        breaker.observe(10.0, 200.0, 5)  # cooldown elapsed
        assert not manager.batching_degraded
        assert manager.writer.n_w == 16
        assert manager.evictor.n_e == 16

    def test_degraded_sizes_clamped_to_configured(self):
        manager = self.make_ace(n_w=4, n_e=4)
        manager.enter_degraded_batching(99, 99)
        assert manager.writer.n_w == 4
        assert manager.evictor.n_e == 4
        manager.exit_degraded_batching()

    @pytest.mark.parametrize("disarmed_plan", [False, True])
    def test_degraded_batching_degrades_free_frame_prefetch(self, disarmed_plan):
        """A miss into free frames prefetches ``n_e - 1`` pages of the
        *live* ``n_e`` (it used to read the configured one: an 8-page read
        batch with the breaker open), on both miss branches."""
        device = SimulatedSSD(PCIE_SSD, num_pages=64)
        device.format_pages(range(64))
        if disarmed_plan:  # the generic, retry-capable branch
            device = FaultyDevice(device, FaultPlan())
        manager = ACEBufferPoolManager(
            32, LRUPolicy(), device,
            config=ACEConfig(n_w=8, n_e=8, prefetch_enabled=True),
            prefetcher=NPLPrefetcher(depth=8),
        )
        manager.enter_degraded_batching()  # breaker open: n_w = n_e = 1
        manager.read_page(0)
        assert manager.device.stats.largest_read_batch == 1
        assert manager.stats.prefetch_issued == 0
        manager.exit_degraded_batching()
        manager.read_page(20)
        assert manager.device.stats.largest_read_batch == 8
        assert manager.stats.prefetch_issued == 7

    def test_baseline_manager_gets_bookkeeping_only(self):
        class Plain:
            pass

        breaker = make_breaker(Plain())
        assert not breaker.actuates
        feed(breaker, 2_000.0, 4)  # must not raise
        assert breaker.state == CircuitBreaker.OPEN
        assert len(breaker.trips) == 1
        breaker.finish()  # no exit hook: still a no-op
