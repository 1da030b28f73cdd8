"""Tests for the cluster sweep bench (tiny grids)."""

from repro.bench import cluster
from repro.cli import main


def tiny_sweep(**overrides):
    kwargs = dict(
        shards=(1, 2),
        placements=("hash", "locality"),
        policies=("lru",),
        num_pages=300,
        num_ops=600,
        seed=42,
    )
    kwargs.update(overrides)
    return cluster.run_sweep(**kwargs)


class TestSweep:
    def test_grid_shape_and_single_shard_dedup(self):
        report = tiny_sweep()
        labels = [cell.label for cell in report.cells]
        # s=1 runs only the hash spelling; s=2 runs both placements.
        assert labels == [
            "lru/baseline/s1/hash",
            "lru/baseline/s2/hash",
            "lru/baseline/s2/locality",
        ]

    def test_cells_measure_something(self):
        report = tiny_sweep(shards=(2,), placements=("hash",))
        cell = report.cells[0]
        assert cell.ops == 600
        assert cell.aggregate_accesses_per_sec > 0
        assert cell.makespan_wall_s > 0
        assert cell.ops_imbalance >= 1.0
        assert cell.elapsed_us > 0
        assert 0.0 <= cell.hit_ratio <= 1.0

    def test_placement_scores_recorded(self):
        report = tiny_sweep()
        hash_cell = report.cell("lru", "baseline", 2, "hash")
        locality_cell = report.cell("lru", "baseline", 2, "locality")
        assert hash_cell.cut_edges >= locality_cell.cut_edges
        assert report.ok

    def test_placement_failure_detected(self):
        report = tiny_sweep()
        bad = [
            cell if cell.placement != "locality"
            else cluster.ClusterCell(
                **{**cell.__dict__, "cut_edges": cell.cut_edges + 1e6}
            )
            for cell in report.cells
        ]
        broken = cluster.ClusterSweepReport(
            seed=report.seed, num_pages=report.num_pages,
            num_ops=report.num_ops, cells=tuple(bad),
        )
        assert not broken.ok
        assert broken.placement_failures

    def test_format_report_renders_both_tables(self):
        report = tiny_sweep()
        text = cluster.format_report(report)
        assert "Cluster sweep" in text
        assert "Placement Pareto points" in text
        assert "s2/locality" in text

    def test_main_smoke_exit_zero(self, capsys):
        assert main([
            "cluster", "--shards", "2", "--policies", "lru",
            "--pages", "300", "--ops", "600",
        ]) == 0
        out = capsys.readouterr().out
        assert "placement claim holds" in out
