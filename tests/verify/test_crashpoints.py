"""The crash-point enumeration engine: schedule, hook device, and sweeps.

The engine's own guarantees are what these tests pin down — deterministic
boundary enumeration, precise tear semantics at the hook device, the
non-circular WAL ledger, and the end-to-end verdict that every enumerated
crash point recovers to exactly the committed state (including when
recovery itself is re-crashed).
"""

import pytest

from repro.bufferpool.wal import WalRecord, WalRecordKind
from repro.errors import PowerFailure
from repro.storage.device import SimulatedSSD
from repro.verify.crashpoints import (
    END_OF_RUN,
    CrashHookDevice,
    CrashPoint,
    CrashSchedule,
    _ledger_from_records,
    _spread,
    run_crashpoint_config,
    run_crashpoints,
)

from tests.bufferpool.conftest import TEST_PROFILE


def make_hooked(num_pages=32):
    schedule = CrashSchedule()
    base = SimulatedSSD(TEST_PROFILE, num_pages=num_pages)
    base.format_pages(range(num_pages))
    return CrashHookDevice(base, schedule), base, schedule


class TestCrashSchedule:
    def test_record_mode_enumerates_without_firing(self):
        schedule = CrashSchedule()
        assert schedule.on_boundary("data-write", 3) is None
        assert schedule.on_boundary("wal-flush", 2) is None
        assert schedule.boundaries == [("data-write", 3), ("wal-flush", 2)]
        assert schedule.boundary_count == 2
        assert schedule.fired is None

    def test_armed_mode_fires_at_exactly_one_ordinal(self):
        schedule = CrashSchedule()
        schedule.reset("armed", target=(1, 2))
        assert schedule.on_boundary("data-write", 4) is None
        assert schedule.on_boundary("data-write", 4) == 2
        assert schedule.fired == (1, "data-write")
        assert schedule.on_boundary("data-write", 4) is None

    def test_site_override_relabels_boundaries(self):
        schedule = CrashSchedule()
        schedule.reset("record", site_override="redo-write")
        schedule.on_boundary("data-write", 1)
        assert schedule.boundaries == [("redo-write", 1)]

    def test_reset_clears_recording(self):
        schedule = CrashSchedule()
        schedule.on_boundary("data-write", 1)
        schedule.reset("record")
        assert schedule.boundaries == []
        assert schedule.boundary_count == 0

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            CrashSchedule().reset("chaos")

    def test_wal_flush_hook_labels_checkpoints(self):
        schedule = CrashSchedule()
        update = WalRecord(1, WalRecordKind.UPDATE, page=3, payload=1)
        marker = WalRecord(2, WalRecordKind.CHECKPOINT)
        schedule.wal_flush_hook((update,))
        schedule.wal_flush_hook((update, marker))
        assert schedule.boundaries == [("wal-flush", 1), ("wal-checkpoint", 2)]


class TestCrashHookDevice:
    def test_delegates_reads_and_metadata(self):
        device, base, schedule = make_hooked()
        base.write_batch({3: 42})
        assert device.peek(3) == 42
        assert device.read_page(3) == 42
        assert device.num_pages == base.num_pages
        assert device.clock is base.clock
        assert device.stats is base.stats

    def test_unarmed_write_passes_through_and_records(self):
        device, base, schedule = make_hooked()
        device.write_batch({1: 10, 2: 20})
        device.write_page(3, 30)
        assert base.peek(1) == 10 and base.peek(3) == 30
        assert schedule.boundaries == [("data-write", 2), ("data-write", 1)]

    def test_armed_tear_lands_prefix_then_power_fails(self):
        device, base, schedule = make_hooked()
        schedule.reset("armed", target=(0, 1))
        with pytest.raises(PowerFailure) as exc_info:
            device.write_batch({1: 10, 2: 20, 3: 30})
        assert exc_info.value.site == "data-write"
        # dict order is insertion order: exactly the first item landed.
        assert base.peek(1) == 10
        assert base.peek(2) == 0
        assert base.peek(3) == 0

    def test_tear_at_zero_lands_nothing(self):
        device, base, schedule = make_hooked()
        schedule.reset("armed", target=(0, 0))
        with pytest.raises(PowerFailure):
            device.write_batch({1: 10})
        assert base.peek(1) == 0

    def test_empty_batch_is_not_a_boundary(self):
        device, base, schedule = make_hooked()
        device.write_batch({})
        assert schedule.boundary_count == 0


class TestHelpers:
    def test_spread_is_deterministic_and_bounded(self):
        assert _spread(5, 10) == [0, 1, 2, 3, 4]
        picked = _spread(100, 7)
        assert picked == _spread(100, 7)
        assert len(picked) <= 7
        assert picked[0] == 0 and picked[-1] == 99
        assert picked == sorted(set(picked))
        assert _spread(100, 1) == [0]

    def test_ledger_counts_versions_per_page(self):
        records = [
            WalRecord(1, WalRecordKind.UPDATE, page=3, payload=1),
            WalRecord(2, WalRecordKind.UPDATE, page=5, payload=1),
            WalRecord(3, WalRecordKind.CHECKPOINT),
            WalRecord(4, WalRecordKind.UPDATE, page=3, payload=2),
        ]
        ledger, error = _ledger_from_records(records)
        assert error is None
        assert ledger == {3: 2, 5: 1}

    def test_ledger_reports_diverging_payload(self):
        records = [
            WalRecord(1, WalRecordKind.UPDATE, page=3, payload=7),
        ]
        ledger, error = _ledger_from_records(records)
        assert error is not None
        assert "page 3" in error


class TestEngine:
    # Tiny but real sweeps: every enumerated point must recover to the
    # exact committed ledger, re-crashes included.

    def run_tiny(self, policy, variant, seed=7):
        return run_crashpoint_config(
            policy, variant, num_pages=96, ops=220, seed=seed,
            commit_every=16, max_points=10, max_redo_crashes=2,
            profile=TEST_PROFILE,
        )

    def test_baseline_sweep_is_zero_loss(self):
        report = self.run_tiny("lru", "baseline")
        assert report.ok, [o.point.label for o in report.failures]
        assert report.boundaries > 0
        assert report.points_tested > 0
        assert report.points_enumerated == report.points_tested + \
            report.points_skipped
        for outcome in report.outcomes:
            assert outcome.committed_updates >= 0
            assert outcome.lost_updates == 0
            assert outcome.phantom_pages == 0

    def test_ace_sweep_is_zero_loss(self):
        report = self.run_tiny("clock", "ace")
        assert report.ok, [o.point.label for o in report.failures]

    def test_end_of_run_point_always_present(self):
        report = self.run_tiny("lru", "baseline")
        sites = [o.point.site for o in report.outcomes]
        assert sites[-1] == END_OF_RUN

    def test_redo_crashes_actually_ran(self):
        report = self.run_tiny("lru", "baseline")
        assert report.redo_crashes_tested > 0
        for outcome in report.outcomes:
            assert outcome.redo_crashes_ok == outcome.redo_crashes_tested

    def test_sweep_is_deterministic(self):
        first = self.run_tiny("lru", "baseline")
        second = self.run_tiny("lru", "baseline")
        assert first == second

    def test_run_crashpoints_aggregates_cells(self):
        report = run_crashpoints(
            policies=("lru",), variants=("baseline", "ace"),
            num_pages=96, ops=160, seed=7, commit_every=16,
            max_points=6, max_redo_crashes=1, profile=TEST_PROFILE,
        )
        assert report.ok
        assert [c.label for c in report.configs] == [
            "lru/baseline", "lru/ace",
        ]
        assert report.points_tested == sum(
            c.points_tested for c in report.configs
        )

    def test_the_default_sweep_covers_the_three_variants(self):
        """``ace+pf`` is crash-tested by default: its wide exchange's bulk
        write-back and eviction and the Reader's batched install are the
        code it adds at a write boundary."""
        report = run_crashpoints(
            policies=("lru",), num_pages=96, ops=160, seed=7,
            commit_every=16, max_points=6, max_redo_crashes=1,
            profile=TEST_PROFILE,
        )
        assert report.ok
        assert [c.label for c in report.configs] == [
            "lru/baseline", "lru/ace", "lru/ace+pf",
        ]
        assert all(c.points_tested > 0 for c in report.configs)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_crashpoint_config(
                "lru", "turbo", num_pages=64, ops=10,
                profile=TEST_PROFILE,
            )


class TestCrashPointLabels:
    def test_label_formats(self):
        assert CrashPoint(3, "wal-flush", 0).label == "#3@wal-flush"
        assert CrashPoint(3, "data-write", 2).label == "#3@data-write+2"


class TestCli:
    def test_cli_tiny_sweep_exits_zero(self, capsys):
        from repro.cli import main

        code = main([
            "crashpoints", "--policies", "lru", "--variants", "baseline",
            "--pages", "96", "--ops", "160", "--max-points", "6",
            "--max-redo-crashes", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "lru/baseline" in out

    def test_cli_default_variants_include_ace_pf(self, capsys):
        from repro.cli import main

        code = main([
            "crashpoints", "--policies", "lru", "--pages", "96", "--ops", "160",
            "--max-points", "4", "--max-redo-crashes", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split()[1] for line in out.splitlines() if line[:3] == "ok "] == [
            "lru/baseline", "lru/ace", "lru/ace+pf",
        ]
