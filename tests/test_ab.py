"""``benchmarks/ab.py``: its summary's ratios are change / parent, a pair
counts as won only when the change is strictly better in the metric's
direction, and ``--seed`` reaches the perfbench CLI."""

import json
import subprocess
from pathlib import Path

import pytest

from benchmarks import ab
from benchmarks.ab import summarise


def test_summary_is_median_ratio_range_and_pairs_won():
    parent = [{"cost": 10.0, "share": 1.0}, {"cost": 20.0, "share": 1.0},
              {"cost": 10.0, "share": 1.0}]
    change = [{"cost": 9.0, "share": 1.0}, {"cost": 22.0, "share": 0.5},
              {"cost": 10.0, "share": 1.0}]
    rows = summarise(parent, change, {"cost": "lower", "share": "higher"})
    assert rows == [
        ("cost", 10.0, 10.0, 1.0, 0.9, pytest.approx(1.1), 1),
        ("share", 1.0, 1.0, 1.0, 0.5, 1.0, 0),
    ]


def test_the_seed_reaches_the_cli_argv(monkeypatch):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        result = {"metrics": {"cost_vs_calib": {"value": 2.5}}}
        clocks = {"wall_s": 1.0, "thread_s": 0.9}
        return subprocess.CompletedProcess(
            argv, 0, stdout=f"{json.dumps(result)}\n{json.dumps(clocks)}\n", stderr=""
        )

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    metrics = ab.run_once(Path("tree"), "ms_base", 10, 7)
    assert metrics == {"cost_vs_calib": 2.5, "wall_s": 1.0, "thread_s": 0.9}
    (argv,) = calls
    assert argv[argv.index("--seed") + 1] == "7"
    assert argv[argv.index("--workload") + 1] == "ms_base"
