"""Tests for the failover bench (tiny grids)."""

import dataclasses

from repro.bench import failover
from repro.cli import main


def tiny_sweep(**overrides):
    kwargs = dict(
        rates=(1.0,),
        replication=(1,),
        policies=("lru",),
        variants=("ace",),
        num_pages=400,
        num_ops=800,
        num_shards=2,
        seed=42,
    )
    kwargs.update(overrides)
    return failover.run_sweep(**kwargs)


class TestSweep:
    def test_grid_shape_includes_scenarios(self):
        report = tiny_sweep()
        labels = [cell.label for cell in report.cells]
        assert labels == [
            "lru/ace/r1/f1",
            "lru/ace/r1/mid-ace-batch",
            "lru/ace/r2/double-failure",
        ]

    def test_storm_cells_audit_clean(self):
        report = tiny_sweep()
        for cell in report.cells:
            assert cell.lost_updates == 0
            assert cell.phantom_pages == 0
            assert cell.ok
        assert report.ok
        assert report.failures == []

    def test_scenarios_exercise_their_shape(self):
        report = tiny_sweep()
        mid = next(c for c in report.cells if c.scenario == "mid-ace-batch")
        assert mid.failovers >= 1
        assert mid.max_failover_latency_us > 0
        double = next(
            c for c in report.cells if c.scenario == "double-failure"
        )
        assert double.candidates_lost >= 1

    def test_zero_rate_cells_never_fail_over(self):
        report = tiny_sweep(rates=(0.0,))
        grid = [cell for cell in report.cells if not cell.scenario]
        assert grid and all(cell.failovers == 0 for cell in grid)
        assert all(cell.availability == 1.0 for cell in grid)

    def test_missed_scenario_is_a_failure(self):
        report = tiny_sweep()
        broken_cells = [
            cell if cell.scenario != "double-failure"
            else dataclasses.replace(cell, candidates_lost=0)
            for cell in report.cells
        ]
        broken = dataclasses.replace(report, cells=tuple(broken_cells))
        assert not broken.ok
        assert any("double-failure" in note for note in broken.failures)

    def test_committed_loss_is_a_failure(self):
        report = tiny_sweep()
        broken_cells = [
            dataclasses.replace(cell, lost_updates=1)
            for cell in report.cells
        ]
        broken = dataclasses.replace(report, cells=tuple(broken_cells))
        assert not broken.ok
        assert any("lost 1 committed" in note for note in broken.failures)


class TestSmokeGrid:
    def test_smoke_grid_is_green_and_small(self):
        report = failover.smoke_grid()
        assert report.ok
        assert len(report.cells) == 6  # 1 policy x 2 variants x 2 R + 2

    def test_format_report_mentions_every_cell(self):
        report = tiny_sweep()
        text = failover.format_report(report)
        for cell in report.cells:
            assert cell.label in text

    def test_main_smoke_exits_zero(self, capsys):
        assert main(["failover", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "zero committed loss" in out


class TestCli:
    def test_failover_subcommand(self, capsys):
        assert main([
            "failover", "--rates", "1", "--replication", "1",
            "--policies", "lru", "--variants", "ace",
            "--pages", "400", "--ops", "800",
        ]) == 0
        assert "Failover sweep" in capsys.readouterr().out
