"""Tests for the chaos harness (repro.bench.chaos)."""

import pytest

from repro.bench.chaos import (
    ChaosCellResult,
    ChaosReport,
    format_report,
    run_cell,
    run_sweep,
    smoke_grid,
)

SMALL = dict(num_pages=400, ops=1_200)


class TestRunCell:
    def test_fault_free_cell_is_durable(self):
        cell = run_cell("lru", "baseline", 0.0, **SMALL)
        assert cell.ok
        assert cell.lost_updates == 0
        assert cell.faults_injected == 0
        assert cell.committed_updates > 0
        assert cell.redo_applied > 0

    def test_faulty_ace_cell_is_durable(self):
        cell = run_cell("lru", "ace", 0.02, **SMALL)
        assert cell.ok
        assert cell.lost_updates == 0
        assert cell.faults_injected > 0  # the plan actually fired

    def test_cells_are_deterministic(self):
        first = run_cell("clock", "ace", 0.01, **SMALL, seed=13)
        second = run_cell("clock", "ace", 0.01, **SMALL, seed=13)
        assert first == second

    def test_cell_label(self):
        cell = run_cell("lru", "baseline", 0.0, **SMALL)
        assert cell.label == "lru/baseline@0"


class TestReport:
    def small_grid(self) -> ChaosReport:
        return run_sweep(rates=(0.0, 0.01), policies=("lru",), **SMALL)

    def test_grid_shape_and_durability(self):
        report = self.small_grid()
        assert len(report.cells) == 4
        assert report.ok
        assert report.failures == ()
        assert report.total_lost == 0
        assert report.total_faults > 0

    def test_failed_cell_marks_report(self):
        bad = ChaosCellResult(
            policy="lru", variant="ace", rate=0.01, ops_run=10,
            committed_updates=5, lost_updates=1, faults_injected=2,
            io_retries=0, degraded_writebacks=0, failed_writebacks=0,
            checkpoints_skipped=0, redo_applied=5, redo_retries=0,
        )
        assert not bad.ok
        report = ChaosReport(cells=(bad,), seed=7)
        assert not report.ok
        assert report.failures == (bad,)
        text = format_report(report)
        assert text.splitlines()[-1] == "FAIL lru/ace@0.01: 1 lost"
        assert "cells durable" not in text

    def test_error_cell_is_a_failure_even_without_loss(self):
        errored = ChaosCellResult(
            policy="lru", variant="ace", rate=0.01, ops_run=10,
            committed_updates=5, lost_updates=0, faults_injected=2,
            io_retries=0, degraded_writebacks=0, failed_writebacks=0,
            checkpoints_skipped=0, redo_applied=5, redo_retries=0,
            error="RetriesExhaustedError: boom",
        )
        assert not errored.ok


class TestSmokeGrid:
    def test_smoke_grid_is_durable(self):
        report = smoke_grid()
        assert report.ok, [cell.label for cell in report.failures]
        assert len(report.cells) == 8
        assert report.total_faults > 0
        assert report.total_lost == 0
        assert report.corruption.ok
        assert report.corruption.corruptions_injected > 0
        # The served cell: admission sheds while faults fire and the run
        # crashes, and no committed update is lost.
        assert report.served.ok
        assert report.served.shed > 0
        assert report.served.committed_updates > 0
        assert format_report(report).splitlines()[-2] == (
            f"ok   lru/ace@0.01 served: {report.served.shed} shed at admission, "
            f"{report.served.committed_updates} committed updates, 0 lost"
        )

    def test_a_lost_served_update_fails_the_report(self):
        served = ChaosCellResult(
            policy="lru", variant="ace", rate=0.01, ops_run=10,
            committed_updates=5, lost_updates=2, faults_injected=2,
            io_retries=0, degraded_writebacks=0, failed_writebacks=0,
            checkpoints_skipped=0, redo_applied=5, redo_retries=0, shed=7,
        )
        report = ChaosReport(cells=(), seed=7, served=served)
        assert not report.ok
        assert format_report(report).splitlines()[-1] == (
            "FAIL lru/ace@0.01 served: 7 shed at admission, "
            "5 committed updates, 2 lost"
        )
