"""Every :class:`FaultKind` has a dispatch in :class:`FaultyDevice`.

The enum and the device that applies it live in different files, so a new
kind without a branch in ``FaultyDevice`` would fail only when a run first
draws it — as an ``AssertionError`` mid-simulation, or as a fault that is
scheduled and never applied.  Each kind is armed alone, at rate 1, in a
real :class:`FaultPlan` over a checksummed device, and one I/O must show
that kind's own effect: its exception and its ``DeviceStats`` counter.
The silent kinds raise nothing when written; the checksummed read after
the write is what surfaces them.
"""

import pytest

from repro.errors import CorruptPageError, IOFaultError, TornWriteError
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultKind, FaultPlan
from repro.storage.device import SimulatedSSD

from tests.bufferpool.conftest import TEST_PROFILE


def read(device):
    device.read_page(3)


def write(device):
    device.write_batch({3: 7, 4: 8})  # two pages, so a batch can tear


def write_then_read(device):
    write(device)
    read(device)
    device.read_page(4)


#: kind -> (the plan arming it alone, the I/O, what it raises, its counter).
EFFECTS = {
    FaultKind.TRANSIENT_READ: (
        {"read_error_rate": 1.0}, read, IOFaultError, "read_faults",
    ),
    FaultKind.TRANSIENT_WRITE: (
        {"write_error_rate": 1.0}, write, IOFaultError, "write_faults",
    ),
    FaultKind.PERMANENT_MEDIA: (
        {"media_error_pages": {3}}, read, IOFaultError, "read_faults",
    ),
    FaultKind.LATENCY_SPIKE: (
        {"latency_spike_rate": 1.0}, read, None, "latency_spikes",
    ),
    FaultKind.TORN_BATCH: (
        {"torn_batch_rate": 1.0}, write, TornWriteError, "torn_batches",
    ),
    FaultKind.BITROT: (
        {"bitrot_rate": 1.0}, read, CorruptPageError, "silent_corruptions",
    ),
    FaultKind.MISDIRECTED_WRITE: (
        {"misdirected_write_rate": 1.0}, write_then_read, CorruptPageError,
        "silent_corruptions",
    ),
    FaultKind.LOST_WRITE: (
        {"lost_write_rate": 1.0}, write_then_read, CorruptPageError,
        "silent_corruptions",
    ),
}


def test_every_fault_kind_has_an_expected_effect():
    assert EFFECTS.keys() == set(FaultKind)


@pytest.mark.parametrize("kind", list(FaultKind), ids=lambda kind: kind.value)
def test_each_fault_kind_has_its_own_effect(kind):
    plan, io, raised, counter = EFFECTS[kind]
    base = SimulatedSSD(TEST_PROFILE, num_pages=16, checksums=True)
    base.format_pages(range(16))
    device = FaultyDevice(base, FaultPlan(seed=1, **plan))
    if raised is None:
        io(device)
    else:
        with pytest.raises(raised) as caught:
            io(device)
        assert caught.type is raised
    assert [event.kind for event in device.injector.events] == [kind]
    assert getattr(base.stats, counter) == 1
