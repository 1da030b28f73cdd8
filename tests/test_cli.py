"""Tests for the command-line interface."""

import inspect
import os

import pytest

from repro.bench import chaos, cluster
from repro.cli import _VERDICTS, build_parser, main
from repro.errors import ClusterReplayError
from repro.policies.registry import PAPER_POLICIES
from repro.verify import check

#: The six verdict commands -> the only options each takes.
VERDICT_OPTIONS = {
    "check": set(),
    "chaos": {"--smoke"},
    "crashpoints": {"--smoke", "--max-points"},
    "cluster": {"--smoke", "--workers"},
    "failover": {"--smoke", "--workers"},
    "overload": {"--smoke"},
}

#: A small grid for each verdict sweep that takes ``policies``.
TINY = {
    "check": dict(num_pages=200, ops=400),
    "chaos": dict(rates=(0.0,), num_pages=400, ops=1_200),
    "crashpoints": dict(num_pages=96, ops=160, max_points=4, max_redo_crashes=1),
    "cluster": dict(num_pages=300, num_ops=600),
    "failover": dict(rates=(0.0,), num_pages=400, num_ops=800),
}


def defaults(function) -> dict:
    """``function``'s keyword defaults, by name."""
    return {
        name: parameter.default
        for name, parameter in inspect.signature(function).parameters.items()
    }


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        args_dict = vars(args)
        assert args_dict["workload"] == "MS"
        assert args_dict["policy"] == "lru"
        assert args_dict["variant"] == "ace"

    def test_invalid_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "nope"])

    def test_check_defaults(self):
        assert defaults(check.run_sweep) == {
            "policies": PAPER_POLICIES, "num_pages": 600, "ops": 1_500,
            "seed": 42,
        }

    def test_chaos_defaults(self):
        assert defaults(chaos.run_sweep) == {
            "rates": (0.0, 0.001, 0.01), "policies": ("lru", "clock", "cflru"),
            "num_pages": 2_000, "ops": 6_000, "seed": 7,
        }
        assert chaos.VARIANTS == ("baseline", "ace")
        assert build_parser().parse_args(["chaos"]).smoke is False

    def test_cluster_defaults(self):
        assert defaults(cluster.run_sweep) == {
            "policies": ("lru", "clock", "cflru"), "num_pages": 20_000,
            "num_ops": 30_000, "seed": 42, "workers": 1,
        }
        assert cluster.SHARDS == (1, 2, 4)
        assert cluster.PLACEMENTS == ("hash", "locality")
        assert cluster.VARIANT == "baseline"
        args = build_parser().parse_args(["cluster"])
        assert (args.workers, args.smoke) == (1, False)

    def test_verdict_commands_take_only_smoke_workers_and_max_points(self):
        """A verdict command runs one fixed sweep: ``--smoke`` picks CI's
        grid, ``--workers`` is a deployment setting, and ``--max-points``
        bounds the crash points; the grid itself is no option."""
        commands = build_parser()._subparsers._group_actions[0].choices
        taken = {
            name: {
                flag
                for action in commands[name]._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            }
            for name in VERDICT_OPTIONS
        }
        assert taken == VERDICT_OPTIONS
        assert sum(map(len, taken.values())) == 8


class TestCommands:
    def test_probe_single_device(self, capsys):
        assert main(["probe", "--device", "optane"]) == 0
        out = capsys.readouterr().out
        assert "Optane SSD" in out
        assert "alpha" in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--workload", "MS", "--policy", "lru", "--variant", "ace",
            "--pages", "1000", "--ops", "2000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean write batch" in out

    def test_run_emulated_device(self, capsys):
        code = main([
            "run", "--alpha", "4.0", "--k-w", "8",
            "--pages", "1000", "--ops", "1500",
        ])
        assert code == 0

    def test_run_custom_read_fraction(self, capsys):
        code = main([
            "run", "--read-fraction", "0.2",
            "--pages", "1000", "--ops", "1500",
        ])
        assert code == 0

    def test_run_unknown_workload_exits(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "--workload", "XX", "--pages", "1000", "--ops", "100"])

    def test_compare(self, capsys):
        code = main([
            "compare", "--workload", "WIS", "--policies", "lru,clock",
            "--pages", "1500", "--ops", "3000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "LRU" in out
        assert "Clock Sweep" in out
        assert "ACE" in out

    def test_tpcc(self, capsys):
        code = main([
            "tpcc", "--warehouses", "1", "--transactions", "40",
            "--row-scale", "0.02",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tpmC" in out
        assert "speedup" in out

    def test_experiment_unknown_exits(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiment", "fig99"])

    def test_experiment_table2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["experiment", "table2"]) == 0
        assert (tmp_path / "table2_workloads.txt").exists()

    @pytest.mark.parametrize("before", [None, "3"])
    def test_experiment_workers_flag_lasts_for_the_run(self, monkeypatch, before):
        from repro.bench import experiments

        if before is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", before)
        seen = []
        monkeypatch.setattr(
            experiments, "table2_workload_definitions",
            lambda: seen.append(os.environ.get("REPRO_WORKERS")),
        )
        assert main(["experiment", "table2", "--workers", "1"]) == 0
        assert seen == ["1"]
        assert os.environ.get("REPRO_WORKERS") == before

    def test_check_runs_sanitized_stacks(self):
        report = check.run_sweep(policies=("lru", "clock"), num_pages=200, ops=400)
        assert report.ok
        out = check.format_report(report)
        assert "ok   lru/baseline" in out
        assert "ok   clock/ace+pf" in out
        assert out.count("twin identical") == 6
        assert out.endswith("all 6 stacks clean")

    def test_check_names_a_failed_stack(self):
        report = check.CheckReport((
            check.StackCheck("lru/ace", 12),
            check.StackCheck("lru/ace+pf", 0, "frame 3 is pinned and free"),
        ))
        assert not report.ok
        assert check.format_report(report).splitlines()[1:] == [
            "FAIL lru/ace+pf: frame 3 is pinned and free",
            "1 stack(s) violated invariants or differed from their twin",
        ]

    @pytest.mark.parametrize(
        ("command", "value"),
        [("compare", "bogus"), ("compare", ","), *(
            (command, "bogus") for command in TINY
        )],
        ids=lambda value: value,
    )
    def test_every_policy_list_is_checked(self, command, value):
        """``compare``'s ``--policies``: an unknown name or a list naming
        none exits with a message before any work, no traceback and no
        sweep passing vacuously.  A verdict sweep fed an unknown policy
        raises or fails with the policy's name, never passes."""
        if command != "compare":
            module = _VERDICTS[command]
            try:
                report = module.run_sweep(policies=(value,), **TINY[command])
            except (KeyError, ClusterReplayError) as exc:
                assert "unknown policy 'bogus'" in str(exc)
            else:
                assert not report.ok
                assert "unknown policy 'bogus'" in module.format_report(report)
            return
        match = "unknown policies: bogus" if value == "bogus" else "names no policy"
        with pytest.raises(SystemExit, match=match):
            main([command, "--policies", value])

    def test_only_compare_and_experiment_take_workers(self):
        parser = build_parser()
        assert parser.parse_args(["compare", "--workers", "2"]).workers == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--workers", "2"])

    def test_compare_names_a_failed_cell_and_its_error(self):
        with pytest.raises(
            RuntimeError,
            match=r"2 of 3 grid cells failed: lru/ace/MS: "
                  r"ValueError: n_w must be at least 1: 0; lru/ace\+pf/MS",
        ):
            main([
                "compare", "--policies", "lru", "--pages", "200", "--ops",
                "200", "--n-w", "0", "--workers", "1",
            ])

    def test_chaos_small_sweep(self):
        report = chaos.run_sweep(
            rates=(0.0, 0.01), policies=("lru",), num_pages=400, ops=1_200,
        )
        assert report.ok
        out = chaos.format_report(report)
        assert "Chaos sweep" in out
        assert "lru/ace@0.01" in out
        assert out.endswith("0 committed updates lost)")

    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "clock/ace@0.01" in out

    def test_cluster_small_sweep(self):
        report = cluster.run_sweep(policies=("lru",), num_pages=400, num_ops=800)
        assert report.ok
        out = cluster.format_report(report)
        assert "lru/baseline/s2/hash" in out
        assert "Placement Pareto points" in out
        assert out.endswith("all 5 cells swept; placement claim holds")

    def test_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["summary", "--output", str(output)]) == 0
        assert output.exists()
        assert "paper vs measured" in output.read_text()
