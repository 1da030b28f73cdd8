"""Tests for FaultyDevice: fault application semantics and pass-through."""

import dataclasses

import pytest

from repro.errors import IOFaultError, TornWriteError
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultKind, FaultPlan
from repro.storage.clock import to_ticks

from tests.faults.conftest import make_base_device, scripted_device

TRANSIENT_READ = FaultKind.TRANSIENT_READ
TRANSIENT_WRITE = FaultKind.TRANSIENT_WRITE
PERMANENT = FaultKind.PERMANENT_MEDIA
SPIKE = FaultKind.LATENCY_SPIKE
TORN = FaultKind.TORN_BATCH


class TestNullPlanPassThrough:
    def test_rate_zero_wrapper_matches_bare_device(self):
        bare = make_base_device()
        wrapped = FaultyDevice(make_base_device(), FaultPlan())
        assert not wrapped._armed
        for device in (bare, wrapped):
            for page in range(16):
                device.write_page(page)
            device.read_batch(list(range(8)))
            device.write_batch({20: "x", 21: "y"})
            device.read_page(5)
        assert wrapped.clock.now_us == bare.clock.now_us
        assert dataclasses.asdict(wrapped.stats) == dataclasses.asdict(bare.stats)
        assert wrapped.peek(20) == bare.peek(20) == "x"
        pages = [20, 21, 5, 99]
        assert wrapped.peek_many(pages) == bare.peek_many(pages) == [
            bare.peek(page) for page in pages
        ]
        assert wrapped.stats.faults_injected == 0

    def test_delegated_surface(self):
        base = make_base_device(num_pages=32)
        wrapped = FaultyDevice(base, FaultPlan())
        assert wrapped.profile is base.profile
        assert wrapped.model is base.model
        assert wrapped.clock is base.clock
        assert wrapped.num_pages == 32
        assert wrapped.stats is base.stats
        assert wrapped.contains(3)
        assert not wrapped.contains(99)


class TestReadFaults:
    def test_transient_read_charges_latency_and_raises(self):
        device = scripted_device([TRANSIENT_READ])
        before = device.clock.now_us
        with pytest.raises(IOFaultError) as excinfo:
            device.read_page(7)
        assert not excinfo.value.permanent
        assert excinfo.value.pages == (7,)
        # The failed read still occupied the device for a full read.
        assert device.clock.now_us - before == \
            pytest.approx(device.model.read_batch_us(1))
        assert device.stats.read_faults == 1
        # The very next read (script exhausted) succeeds.
        assert device.read_page(7) == 0

    def test_permanent_read_fault(self):
        device = scripted_device([(PERMANENT, (7,))])
        with pytest.raises(IOFaultError) as excinfo:
            device.read_page(7)
        assert excinfo.value.permanent

    def test_read_batch_faults_once_per_operation(self):
        device = scripted_device([TRANSIENT_READ])
        with pytest.raises(IOFaultError) as excinfo:
            device.read_batch([1, 2, 3])
        assert excinfo.value.pages == (1, 2, 3)
        assert device.injector.operations == 1

    def test_latency_spike_succeeds_after_delay(self):
        device = scripted_device([(SPIKE, 1_500.0)])
        base_cost = device.model.read_batch_us(1)
        before = device.clock.now_us
        assert device.read_page(4) == 0
        assert device.clock.now_us - before == \
            pytest.approx(base_cost + 1_500.0)
        assert device.stats.latency_spikes == 1
        assert device.stats.fault_delay_ticks == to_ticks(1_500.0)
        # Spikes are slowdowns, not failures: excluded from faults_injected.
        assert device.stats.faults_injected == 0


class TestWriteFaults:
    def test_transient_write_lands_nothing(self):
        device = scripted_device([TRANSIENT_WRITE])
        before = device.clock.now_us
        with pytest.raises(IOFaultError) as excinfo:
            device.write_batch({1: "a", 2: "b"})
        assert not excinfo.value.permanent
        assert excinfo.value.acknowledged == ()
        assert device.clock.now_us - before == \
            pytest.approx(device.model.write_batch_us(2))
        assert device.peek(1) == 0 and device.peek(2) == 0
        assert device.stats.write_faults == 1

    def test_torn_batch_lands_the_prefix(self):
        device = scripted_device([(TORN, 2)])
        with pytest.raises(TornWriteError) as excinfo:
            device.write_batch({1: "a", 2: "b", 3: "c"})
        fault = excinfo.value
        assert fault.acknowledged == (1, 2)
        assert fault.pages == (3,)
        assert not fault.permanent
        assert device.peek(1) == "a" and device.peek(2) == "b"
        assert device.peek(3) == 0  # the tail never landed
        assert device.stats.torn_batches == 1

    def test_permanent_media_write_lands_healthy_pages(self):
        device = scripted_device([(PERMANENT, (2,))])
        with pytest.raises(IOFaultError) as excinfo:
            device.write_batch({1: "a", 2: "b", 3: "c"})
        fault = excinfo.value
        assert fault.permanent
        assert fault.pages == (2,)
        assert fault.acknowledged == (1, 3)
        assert device.peek(1) == "a" and device.peek(3) == "c"
        assert device.peek(2) == 0

    def test_write_page_routes_through_write_batch(self):
        device = scripted_device([TRANSIENT_WRITE])
        with pytest.raises(IOFaultError):
            device.write_page(5, payload="x")
        assert device.peek(5) == 0

    def test_duplicate_pages_rejected_when_armed(self):
        device = scripted_device([])
        with pytest.raises(ValueError, match="duplicate"):
            device.write_batch([4, 4])

    def test_iterable_batch_uses_stored_payloads(self):
        device = scripted_device([])
        device.write_page(6, payload="kept")
        device.write_batch([6])  # re-writes the stored payload
        assert device.peek(6) == "kept"


class TestOutOfBandOperations:
    def test_format_pages_is_never_injected(self):
        device = scripted_device([TRANSIENT_WRITE])
        device.format_pages(range(10))
        assert device.injector.operations == 0
        assert len(device.injector.script) == 1

    def test_faults_injected_counts_only_failures(self):
        device = scripted_device(
            [TRANSIENT_READ, None, TRANSIENT_WRITE, (TORN, 1), SPIKE]
        )
        with pytest.raises(IOFaultError):
            device.read_page(1)
        device.read_page(1)
        with pytest.raises(IOFaultError):
            device.write_batch({1: "a"})
        with pytest.raises(TornWriteError):
            device.write_batch({1: "a", 2: "b"})
        device.read_page(2)  # spike: succeeds
        assert device.stats.faults_injected == 3
        assert device.stats.latency_spikes == 1
