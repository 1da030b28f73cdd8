"""Tests for crash simulation and redo recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.recovery import (
    CrashImage,
    DurabilityAudit,
    audit_committed,
    recover,
    simulate_crash,
    write_ledger,
)
from repro.bufferpool.wal import WalRecordKind, WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.core.stack import VARIANTS, build_manager
from repro.engine.executor import replay
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD

from tests.bufferpool.conftest import TEST_PROFILE


def make_wal_manager(capacity=8, num_pages=128, ace=False, records_per_page=4):
    device = SimulatedSSD(TEST_PROFILE, num_pages=num_pages)
    device.format_pages(range(num_pages))
    wal = WriteAheadLog(device.clock, records_per_page=records_per_page)
    if ace:
        manager = ACEBufferPoolManager(
            capacity, LRUPolicy(), device, wal=wal,
            config=ACEConfig(n_w=4, n_e=4),
        )
    else:
        manager = BufferPoolManager(capacity, LRUPolicy(), device, wal=wal)
    return manager, wal


class TestWalRecords:
    def test_update_records_carry_redo_payload(self):
        manager, wal = make_wal_manager()
        manager.write_page(3)
        wal.flush()
        record = wal.durable_records()[-1]
        assert record.kind is WalRecordKind.UPDATE
        assert record.page == 3
        assert record.payload == 1

    def test_durable_lsn_advances_on_flush(self):
        manager, wal = make_wal_manager(records_per_page=100)
        manager.write_page(3)
        assert wal.durable_lsn == 0
        wal.flush()
        assert wal.durable_lsn == 1

    def test_records_since(self):
        manager, wal = make_wal_manager(records_per_page=1)
        for page in range(5):
            manager.write_page(page)
        assert len(wal.records_since(2)) == 3
        with pytest.raises(ValueError):
            wal.records_since(-1)

    def test_redo_since_rejects_a_negative_lsn(self):
        manager, wal = make_wal_manager(records_per_page=1)
        for page in range(5):
            manager.write_page(page, payload=page)
        assert wal.redo_since(3) == ([3, 4], [3, 4])
        # A negative slice would hand back the log's tail.
        with pytest.raises(ValueError, match="negative"):
            wal.redo_since(-1)

    def test_checkpoint_sets_last_checkpoint_lsn(self):
        manager, wal = make_wal_manager()
        manager.write_page(0)
        manager.flush_all()
        assert wal.last_checkpoint_lsn == wal.lsn


class TestCrash:
    def test_crash_requires_wal(self):
        device = SimulatedSSD(TEST_PROFILE, num_pages=16)
        device.format_pages(range(16))
        manager = BufferPoolManager(4, LRUPolicy(), device)
        with pytest.raises(ValueError):
            simulate_crash(manager)

    def test_crash_reports_lost_dirty_pages(self):
        manager, wal = make_wal_manager()
        manager.write_page(3)
        manager.write_page(7)
        image = simulate_crash(manager)
        assert image.lost_dirty_pages == (3, 7)

    def test_crashed_manager_unusable(self):
        manager, _ = make_wal_manager()
        manager.write_page(3)
        simulate_crash(manager)
        with pytest.raises(Exception):
            manager.read_page(3)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_crashed_manager_refuses_replay(self, variant):
        # The inlined loop runs on the ``_turbo`` tuple, whose hooks for
        # LRU are its ordered map's own methods: a crash that left them
        # bound would let the dead manager serve these hits (and log the
        # write into the crash image's WAL).
        device = SimulatedSSD(TEST_PROFILE, num_pages=128)
        device.format_pages(range(128))
        wal = WriteAheadLog(device.clock, records_per_page=4)
        manager = build_manager(device, 8, "lru", variant, wal=wal, sanitize=False)
        replay(manager, [3], [False])
        simulate_crash(manager)
        with pytest.raises(TypeError):
            replay(manager, [3, 3, 3], [False, True, False])
        assert wal.lsn == 0


class TestRecovery:
    def test_committed_update_survives_crash(self):
        manager, wal = make_wal_manager(records_per_page=100)
        manager.write_page(3)      # version 1, dirty in memory only
        wal.flush()                # commit
        image = simulate_crash(manager)
        assert image.device._payloads[3] == 0  # crash lost the update
        report = recover(image)
        assert report.redo_applied == 1
        assert image.device._payloads[3] == 1  # redo restored it

    def test_uncommitted_update_lost(self):
        manager, wal = make_wal_manager(records_per_page=100)
        manager.write_page(3)      # never flushed: not durable
        image = simulate_crash(manager)
        report = recover(image)
        assert report.redo_applied == 0
        assert image.device._payloads[3] == 0

    def test_redo_applies_latest_version_once(self):
        manager, wal = make_wal_manager(records_per_page=1)
        for _ in range(5):
            manager.write_page(3)
        image = simulate_crash(manager)
        writes_before = image.device.stats.writes
        report = recover(image)
        assert report.redo_applied == 5      # records scanned as redo
        assert image.device.stats.writes == writes_before + 1  # one write
        assert image.device._payloads[3] == 5

    def test_recovery_starts_from_checkpoint(self):
        manager, wal = make_wal_manager(records_per_page=1)
        manager.write_page(1)
        manager.flush_all()        # checkpoint: page 1 is on the device
        manager.write_page(2)
        image = simulate_crash(manager)
        report = recover(image)
        assert report.start_lsn == wal.last_checkpoint_lsn
        # Only the post-checkpoint update is redone.
        assert report.redo_applied == 1
        assert image.device._payloads[2] == 1

    def test_recovery_with_ace_manager(self):
        manager, wal = make_wal_manager(ace=True, records_per_page=1)
        for page in range(12):
            manager.write_page(page)
        image = simulate_crash(manager)
        recover(image)
        for page in range(12):
            assert image.device._payloads[page] == 1

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 31), st.booleans()),
            min_size=1, max_size=120,
        ),
        st.booleans(),
    )
    def test_durability_property(self, operations, use_ace):
        """Every committed write is recovered; versions never regress."""
        manager, wal = make_wal_manager(
            capacity=6, num_pages=32, ace=use_ace, records_per_page=3
        )
        committed: dict[int, int] = {}
        pending: dict[int, int] = {}
        for page, commit in operations:
            pending[page] = manager.write_page(page)
            if commit:
                wal.flush()
                committed.update(pending)
                pending.clear()
        image = simulate_crash(manager)
        recover(image)
        for page, version in committed.items():
            recovered = image.device._payloads[page]
            assert isinstance(recovered, int)
            assert recovered >= version


class TestAuditCommitted:
    """The reusable recovery audit shared by chaos and crash-point runs."""

    def make_image(self, payloads):
        device = SimulatedSSD(TEST_PROFILE, num_pages=16)
        device.format_pages(range(16))
        if payloads:
            device.write_batch(payloads)
        wal = WriteAheadLog(device.clock)
        return CrashImage(device=device, wal=wal, lost_dirty_pages=())

    def test_clean_match_is_ok(self):
        image = self.make_image({1: 2, 2: 1})
        audit = audit_committed(image, None, {1: 2, 2: 1}, exact=True)
        assert audit.ok
        assert audit.committed_updates == 3
        assert audit.lost_updates == 0
        assert audit.phantom_pages == 0

    def test_behind_the_ledger_is_lost(self):
        image = self.make_image({1: 1})
        audit = audit_committed(image, None, {1: 3})
        assert not audit.ok
        assert audit.lost == ((1, 3, 1),)
        assert audit.lost_updates == 1

    def test_non_exact_allows_device_ahead(self):
        # Chaos mode: the ledger is a lower bound (later write-backs may
        # have made more recent work durable).
        image = self.make_image({1: 5})
        assert audit_committed(image, None, {1: 2}).ok

    def test_exact_flags_ahead_as_phantom(self):
        image = self.make_image({1: 5})
        audit = audit_committed(image, None, {1: 2}, exact=True)
        assert not audit.ok
        assert audit.phantoms == ((1, 2, 5),)

    def test_exact_pages_extends_to_unledgered_pages(self):
        # Page 7 was never committed, yet redo left a version on it:
        # phantom redo, caught only because pages= widens the audit.
        image = self.make_image({7: 4})
        ledger = {1: 0}
        assert audit_committed(image, None, ledger, exact=True).ok
        audit = audit_committed(
            image, None, ledger, exact=True, pages=range(16)
        )
        assert audit.phantoms == ((7, 0, 4),)

    def test_non_counter_payload_reads_as_version_zero(self):
        image = self.make_image({1: "garbage"})
        audit = audit_committed(image, None, {1: 1})
        assert audit.lost == ((1, 1, 0),)


def per_page_audit(device, ledger, exact, pages):
    """The audit as a page-by-page read: the reference its bulk clean
    check must agree with."""

    def durable(page):
        payload = device.peek(page)
        return payload if isinstance(payload, int) else 0

    lost, phantoms = [], []
    for page, version in ledger.items():
        if durable(page) < version:
            lost.append((page, version, durable(page)))
        elif exact and durable(page) != version:
            phantoms.append((page, version, durable(page)))
    if exact and pages is not None:
        for page in pages:
            if page not in ledger and durable(page) != 0:
                phantoms.append((page, 0, durable(page)))
    return DurabilityAudit(sum(ledger.values()), tuple(lost), tuple(phantoms))


#: Stored payloads the audit must read as the loop does: counters, a bool
#: (an ``int``), a float equal to a counter (version 0), no image, a
#: corrupted tuple and a string.
PAYLOADS = (0, 1, 3, 5, True, False, 3.0, 0.0, None, ("bitrot", 3), "3")
#: Out of order on purpose: ``lost`` follows the ledger, ``phantoms`` the
#: ledger then ``pages``.
LEDGER = {4: 2, 0: 3, 2: 1, 6: 0}
PAGES = {
    "none": lambda: None,
    "range": lambda: range(10),
    "list": lambda: [9, 5, 3, 1, 0, 7, 4, 2, 8, 6, 11],
    "generator": lambda: (page for page in (7, 1, 5, 3, 11, 4)),
}


class TestAuditMatchesThePerPageLoop:
    """``audit_committed`` decides a clean device in bulk; whatever it
    decides must be what the page-by-page loop finds, entry for entry."""

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("pages", PAGES.values(), ids=list(PAGES))
    def test_identical_audit(self, exact, pages):
        device = SimulatedSSD(TEST_PROFILE, num_pages=12)
        image = CrashImage(device=device, wal=None, lost_dirty_pages=())
        clean = {**dict.fromkeys(range(10), 0), **LEDGER}
        outcomes = set()
        for ledgered in PAYLOADS:
            for unledgered in PAYLOADS:
                for page_four in (2, 1, 5):  # exact, behind, ahead
                    device.restore_payloads(
                        {**clean, 0: ledgered, 5: unledgered, 4: page_four}
                    )
                    expected = per_page_audit(device, LEDGER, exact, pages())
                    audit = audit_committed(
                        image, None, LEDGER, exact=exact, pages=pages()
                    )
                    assert audit == expected, (ledgered, unledgered, page_four)
                    outcomes.add(audit.ok)
        assert outcomes == {True, False}

    def test_the_clean_verdict_reads_no_page_by_page(self, monkeypatch):
        device = SimulatedSSD(TEST_PROFILE, num_pages=12)
        device.restore_payloads({**dict.fromkeys(range(12), None), **LEDGER})
        image = CrashImage(device=device, wal=None, lost_dirty_pages=())

        def refuse(page):
            raise AssertionError(f"page {page} peeked")

        monkeypatch.setattr(device, "peek", refuse)
        audit = audit_committed(image, None, LEDGER, exact=True, pages=range(12))
        assert audit == DurabilityAudit(committed_updates=6)

    def test_a_one_shot_pages_iterable_survives_the_fall_through(self):
        device = SimulatedSSD(TEST_PROFILE, num_pages=12)
        device.restore_payloads({**LEDGER, 0: 1, 9: 7})
        image = CrashImage(device=device, wal=None, lost_dirty_pages=())
        audit = audit_committed(
            image, None, LEDGER, exact=True, pages=iter(range(12))
        )
        assert audit.lost == ((0, 3, 1),)
        assert audit.phantoms == ((9, 0, 7),)


class TestWriteLedger:
    def test_counts_each_written_page_in_first_write_order(self):
        pages = [5, 3, 5, 9, 3, 5, 1]
        writes = [True, False, True, 1, True, 0, False]
        ledger = write_ledger(pages, writes)
        assert ledger == {5: 2, 9: 1, 3: 1}
        assert list(ledger) == [5, 9, 3]
        assert type(ledger) is dict
