"""A/A check: several sets of runs of the *same* code must agree.

A benchmark whose medians move between two sets of identical code cannot
resolve a change smaller than that movement.  ``python -m perfbench aa``
runs every workload ``--runs`` times per set (run ``r`` uses seed ``42 + r``
in every set), takes each set's median per workload x metric,
and fails if any two sets differ by more than the metric's bound — or, for
the metrics that are counts or simulated results, differ at all.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from perfbench.metrics import END_TO_END

__all__ = ["run_aa"]

ROOT = Path(__file__).resolve().parent.parent
#: Read from the manifest, not from ``workloads.py``: this module drives
#: benchmark processes and must not import the program itself.
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(workload["name"] for workload in MANIFEST["workloads"])
#: Run length is the benchmark's, never the caller's: a shortened or
#: partial set proves nothing about the real one.
SECONDS = MANIFEST["run_seconds"]
SEED = 42
#: Same seed, same code: these must repeat to the last digit.
EXACT = ("opcodes_per_op", "virtual_runtime_s", "device_ios_per_kop", "passed_share")


def _run_once(workload: str, seed: int) -> dict:
    """One benchmark process; returns its parsed result line plus ``wall_s``."""
    start = perf_counter()
    done = subprocess.run(
        [
            sys.executable, "-m", "perfbench", "run", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def run_aa(sets: int, runs: int) -> int:
    medians: list[dict[tuple[str, str], float]] = []
    for index in range(sets):
        set_start = perf_counter()
        per_set: dict[tuple[str, str], float] = {}
        for workload in WORKLOADS:
            results = [_run_once(workload, SEED + r) for r in range(runs)]
            for name, *_ in END_TO_END:
                per_set[workload, name] = statistics.median(
                    result["metrics"][name]["value"] for result in results
                )
            walls = ", ".join(f"{result['wall_s']:.1f}" for result in results)
            print(f"set {index} {workload}: process wall {walls} s", flush=True)
        medians.append(per_set)
        print(f"set {index}: {perf_counter() - set_start:.1f} s", flush=True)

    worst = 0
    print(f"{'workload':<13}{'metric':<20}" + "".join(
        f"{'set ' + str(i):>16}" for i in range(sets)) + f"{'gap':>9}{'bound':>7}")
    for workload in WORKLOADS:
        for name, _, _, bound, _ in END_TO_END:
            values = [per_set[workload, name] for per_set in medians]
            gap = (max(values) - min(values)) / min(values)
            limit = 0.0 if name in EXACT else bound
            verdict = "" if gap <= limit else "  OVER"
            worst += gap > limit
            print(
                f"{workload:<13}{name:<20}"
                + "".join(f"{value:>16.6g}" for value in values)
                + f"{gap:>9.4f}{limit:>7.3f}{verdict}"
            )
    print(f"{worst} workload x metric pairs over their bound")
    return 1 if worst else 0
