"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main

#: Every subcommand that takes ``--policies``.
POLICY_LIST_COMMANDS = (
    "compare", "check", "chaos", "crashpoints", "cluster", "failover", "overload",
)


#: ``(command, option, value, message)``: every list option but
#: ``--policies``, each fed an empty list and an unknown or unparsable item.
LIST_OPTION_CASES = [
    ("chaos", "--variants", "", "--variants names no variant"),
    ("chaos", "--variants", "bogus", "unknown variants: bogus"),
    ("chaos", "--rates", "", "--rates names no rate"),
    ("chaos", "--rates", "often", "unknown rates: often"),
    ("crashpoints", "--variants", ",", "--variants names no variant"),
    ("crashpoints", "--variants", "bogus", "unknown variants: bogus"),
    ("cluster", "--shards", "", "--shards names no shard count"),
    ("cluster", "--shards", "two", "unknown shards: two"),
    ("cluster", "--placements", "", "--placements names no placement"),
    ("cluster", "--placements", "bogus", "unknown placements: bogus"),
    ("failover", "--variants", "", "--variants names no variant"),
    ("failover", "--variants", "bogus", "unknown variants: bogus"),
    ("failover", "--rates", "", "--rates names no rate"),
    ("failover", "--replication", "", "--replication names no replication"),
    ("failover", "--replication", "one", "unknown replication: one"),
]


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
        args = build_parser().parse_args(["check"])
        assert args.pages == 600
        assert args.ops == 1500
        assert "lru" in args.policies

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.rates == "0,0.001,0.01"
        assert args.policies == "lru,clock,cflru"
        assert args.variants == "baseline,ace"
        assert args.smoke is False

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.shards == "1,2,4"
        assert args.placements == "hash,locality"
        assert args.policies == "lru,clock,cflru"
        assert args.variant == "baseline"
        assert args.workers == 1
        assert args.smoke is False


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

    def test_check_runs_sanitized_stacks(self, capsys):
        code = main([
            "check", "--policies", "lru,clock", "--pages", "200",
            "--ops", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ok   lru/baseline" in out
        assert "ok   clock/ace+pf" in out
        assert out.count("twin identical") == 6
        assert "all 6 stacks clean" in out

    def test_check_unknown_policy_exits(self):
        with pytest.raises(SystemExit, match="unknown policies"):
            main(["check", "--policies", "nope"])

    @pytest.mark.parametrize("value", ["bogus", ","])
    @pytest.mark.parametrize("command", POLICY_LIST_COMMANDS)
    def test_every_policy_list_is_checked(self, command, value):
        """An unknown name or a list naming none exits with a message
        before any work: no traceback, and no sweep passing vacuously."""
        match = "unknown policies: bogus" if value == "bogus" else "names no policy"
        with pytest.raises(SystemExit, match=match):
            main([command, "--policies", value])

    @pytest.mark.parametrize(
        ("command", "option", "value", "match"), LIST_OPTION_CASES,
        ids=[f"{case[0]}{case[1]}={case[2]}" for case in LIST_OPTION_CASES],
    )
    def test_every_list_option_is_checked(self, command, option, value, match):
        """``--policies``'s check, for every other list option: an unknown
        or unparsable item, or a list naming none, exits with a message
        before any work."""
        with pytest.raises(SystemExit, match=match):
            main([command, option, value])

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

    def test_chaos_small_sweep(self, capsys):
        code = main([
            "chaos", "--rates", "0,0.01", "--policies", "lru",
            "--variants", "baseline,ace", "--pages", "400", "--ops", "1200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "lru/ace@0.01" in out
        assert "0 committed updates lost" in out

    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "clock/ace@0.01" in out

    def test_cluster_small_sweep(self, capsys):
        code = main([
            "cluster", "--shards", "2", "--policies", "lru",
            "--pages", "400", "--ops", "800",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lru/baseline/s2/hash" in out
        assert "Placement Pareto points" in out
        assert "placement claim holds" in out

    def test_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["summary", "--output", str(output)]) == 0
        assert output.exists()
        assert "paper vs measured" in output.read_text()
