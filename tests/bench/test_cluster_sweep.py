"""Tests for the cluster sweep bench (tiny grids)."""

import functools

from repro.bench import cluster


@functools.cache
def tiny_sweep():
    return cluster.run_sweep(policies=("lru",), num_pages=300, num_ops=600)


class TestSweep:
    def test_grid_shape_and_single_shard_dedup(self):
        report = tiny_sweep()
        labels = [cell.label for cell in report.cells]
        # s=1 runs only the hash spelling; s=2 and s=4 run both placements.
        assert labels == [
            "lru/baseline/s1/hash",
            "lru/baseline/s2/hash",
            "lru/baseline/s2/locality",
            "lru/baseline/s4/hash",
            "lru/baseline/s4/locality",
        ]

    def test_cells_measure_something(self):
        cell = tiny_sweep().cell("lru", "baseline", 2, "hash")
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
        lines = cluster.format_report(broken).splitlines()
        assert lines[-2:] == [
            f"FAIL {failure}" for failure in broken.placement_failures
        ]
        assert lines[-1].startswith("FAIL lru/baseline/s4/locality: locality cut")

    def test_format_report_renders_both_tables(self):
        report = tiny_sweep()
        text = cluster.format_report(report)
        assert "Cluster sweep" in text
        assert "Placement Pareto points" in text
        assert "s2/locality" in text

    def test_main_smoke_exit_zero(self):
        text = cluster.format_report(tiny_sweep())
        assert text.endswith("all 5 cells swept; placement claim holds")
