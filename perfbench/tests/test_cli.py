"""The command the driver runs: its result line, and its refusal to run
where there is no program to measure."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
COMMAND = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]


def _run(cwd, *extra):
    command = [sys.executable] + COMMAND[1:] + list(extra)
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=170, check=False
    )


@pytest.mark.parametrize(
    "trace,expected",
    [(0, [(n, u) for n, u, *_ in END_TO_END]), (1, [(n, u) for n, u, _ in PER_LAYER])],
)
def test_result_line(trace, expected):
    # The cheapest workload, at a tenth of the pass count: the command has
    # no size option, sizes belong to the benchmark.
    done = _run(
        ROOT, "--workload", "fit_hits", "--seed", "3", "--seconds", "1",
        "--trace", str(trace),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run(
        tmp_path, "--workload", "ms_base", "--seed", "1", "--seconds", "10",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
