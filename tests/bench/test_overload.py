"""Tests for the overload saturation-sweep harness."""

import pytest

import dataclasses

from repro.bench.overload import (
    SMOKE_MULTIPLIERS,
    OverloadCell,
    OverloadReport,
    _calibrate,
    format_report,
    make_overload_trace,
    run_cell,
    smoke_grid,
)
from repro.bench.runner import StackConfig
from repro.cli import build_parser
from repro.storage.profiles import PCIE_SSD


class TestSmokeGrid:
    @pytest.fixture(scope="class", autouse=True)
    def _report(self, request):
        # One deterministic grid for the six read-only checks below.
        request.cls.report = smoke_grid()

    def test_report_passes(self):
        assert self.report.ok, "\n".join(self.report.failures)

    def test_grid_shape(self):
        # 3 shed policies x {baseline, ace} curves, one cell per multiplier.
        assert len(self.report.curves) == 6
        for curve in self.report.curves:
            assert len(curve.cells) == len(SMOKE_MULTIPLIERS)

    def test_every_cell_partitions_offered_load(self):
        for curve in self.report.curves:
            for cell in curve.cells:
                assert (
                    cell.shed + cell.expired + cell.failed + cell.completed
                    == cell.offered
                )

    def test_degradation_is_graceful(self):
        for curve in self.report.curves:
            assert curve.graceful, curve.label

    def test_breaker_ab_improves_p99(self):
        breaker = self.report.breaker
        assert breaker.trips, "breaker must trip under mistuned batches"
        assert breaker.tripped
        assert breaker.improved
        assert breaker.p99_on_us < breaker.p99_off_us

    def test_format_report_mentions_verdict(self):
        text = format_report(self.report)
        assert "OVERLOAD OK" in text
        assert "breaker" in text.lower()

    def test_a_cliff_is_a_failure(self):
        curve = self.report.curves[0]
        top = max(curve.cells, key=lambda cell: cell.multiplier)
        cliff = dataclasses.replace(curve, cells=tuple(
            dataclasses.replace(cell, goodput_per_s=0.0) if cell is top else cell
            for cell in curve.cells
        ))
        report = OverloadReport(
            curves=(cliff,), breaker=self.report.breaker, seed=7,
        )
        assert not report.ok
        lines = format_report(report).splitlines()
        assert lines[-1].startswith(f"OVERLOAD FAIL: cliff: {curve.label} goodput@max=0/s")
        assert "OVERLOAD OK" not in lines


class TestCellDeterminism:
    def test_same_inputs_same_cell(self):
        config = StackConfig(
            profile=PCIE_SSD, policy="lru", variant="ace", num_pages=1_200
        )
        trace = make_overload_trace(1_200, 3_000, seed=7)
        rate = _calibrate(config, trace)
        first = run_cell(config, trace, "drop-oldest", 2.0, rate)
        second = run_cell(config, trace, "drop-oldest", 2.0, rate)
        assert isinstance(first, OverloadCell)
        assert first == second


class TestOverloadTrace:
    def test_clients_and_skewed_shares(self):
        trace = make_overload_trace(1_000, 2_000, seed=3, clients=4)
        assert trace.client_ids is not None
        counts = {}
        for client in trace.client_ids:
            counts[client] = counts.get(client, 0) + 1
        assert set(counts) == {0, 1, 2, 3}
        # Client 0 carries a double share: the client-fair shed policy
        # needs a heavy hitter to discriminate against.
        assert counts[0] == 2 * counts[1]
        assert counts[1] == counts[2] == counts[3]


class TestCLI:
    def test_overload_subcommand_parses(self):
        parser = build_parser()
        args = parser.parse_args(["overload", "--smoke"])
        assert args.command == "overload"
        assert args.smoke
        with pytest.raises(SystemExit):
            parser.parse_args(["overload", "--seed", "9"])
