"""Alternating A/B pairs of ``python -m perfbench run``: parent against change.

``python benchmarks/ab.py --parent REV --workload W [--pairs N] [--seed S]``
checks out ``REV`` and ``HEAD`` (commit the change first) as two temporary
``git worktree``s, byte-compiles both, then runs N pairs (default 10) of
the perfbench CLI as ``BENCHMARK.json`` runs it, with ``--seed S``
(default 42), parent first in odd pairs and change first in even ones, so
drift on a shared host lands on both sides.  A seed not used while
writing the change is the held-out check of a claim.
Each run also records its own ``time.perf_counter`` and
``time.thread_time`` around the CLI: the thread clock does not advance
while the run is descheduled.  ``thread_s`` covers the main process only
(a cluster's workers are not in it).

It prints, per metric, the median ratio change / parent, the ratios'
range, and in how many pairs the change was better (ties count for
neither).  It gates nothing and never imports from ``perfbench/``: it
runs the CLI, as ``BENCHMARK.json``'s ``command`` does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs ``python -m perfbench ...`` (argv[1:]) under both clocks and
#: prints them as a last JSON line.
_TIMED_CLI = """\
import json, runpy, sys, time
sys.argv = ["perfbench", *sys.argv[1:]]
wall, thread = time.perf_counter(), time.thread_time()
try:
    runpy.run_module("perfbench", run_name="__main__", alter_sys=True)
except SystemExit as stop:
    if stop.code:
        raise
print(json.dumps({"wall_s": time.perf_counter() - wall,
                  "thread_s": time.thread_time() - thread}))
"""

#: The clocks ab.py adds to perfbench's end-to-end metrics; lower is better.
CLOCKS = ("wall_s", "thread_s")


def benchmark() -> tuple[float, dict[str, str]]:
    """BENCHMARK.json's run length, and metric -> "lower" / "higher" for
    its end-to-end metrics and the two clocks ab.py records."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    return spec["run_seconds"], better | dict.fromkeys(CLOCKS, "lower")


def run_once(
    tree: Path, workload: str, seconds: float, seed: int
) -> dict[str, float]:
    """One perfbench run in ``tree``: its metrics plus the two clocks."""
    argv = ["run", "--workload", workload, "--seconds", str(seconds),
            "--seed", str(seed)]
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_CLI, *argv],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode:
        raise SystemExit(f"perfbench failed in {tree}:\n{done.stdout}{done.stderr}")
    *_, result_line, clocks_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics | json.loads(clocks_line)


def summarise(
    parent_runs: list[dict[str, float]],
    change_runs: list[dict[str, float]],
    better: dict[str, str],
) -> list[tuple[str, float, float, float, float, float, int]]:
    """Per metric: (name, parent median, change median, median ratio,
    lowest ratio, highest ratio, pairs the change won)."""
    rows = []
    for name, direction in better.items():
        pairs = [
            (parent[name], change[name])
            for parent, change in zip(parent_runs, change_runs)
            if name in parent and name in change
        ]
        if not pairs:
            continue
        ratios = [c / p if p else float(c == p) for p, c in pairs]
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        rows.append((
            name,
            statistics.median(p for p, _ in pairs),
            statistics.median(c for _, c in pairs),
            statistics.median(ratios),
            min(ratios),
            max(ratios),
            won,
        ))
    return rows


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    seconds, better = benchmark()
    revisions = {side: _git("rev-parse", "--verify", f"{rev}^{{commit}}")
                 for side, rev in (("parent", args.parent), ("change", "HEAD"))}
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees = {side: Path(scratch) / side for side in revisions}
        try:
            for side, tree in trees.items():
                _git("worktree", "add", "--detach", str(tree), revisions[side])
                subprocess.run(
                    [sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                    cwd=tree, check=True, stdout=subprocess.DEVNULL,
                )
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(
                        run_once(trees[side], args.workload, seconds, args.seed)
                    )
                costs = "  ".join(
                    f"{side} cost_vs_calib {runs[side][-1]['cost_vs_calib']:.3f}"
                    for side in ("parent", "change")
                )
                print(f"pair {pair + 1}/{args.pairs} ({order[0]} first, seed "
                      f"{args.seed}): {costs}", flush=True)
        finally:
            for tree in trees.values():
                if tree.exists():
                    _git("worktree", "remove", "--force", str(tree))
    print(f"\n{args.workload}, --seconds {seconds:g}, --seed {args.seed}, "
          f"{args.pairs} pairs: "
          f"parent {revisions['parent'][:10]} -> change {revisions['change'][:10]}")
    print(f"{'metric':<20} {'parent':>12} {'change':>12} {'ratio':>8} "
          f"{'range':>17}  change won")
    for name, parent, change, ratio, low, high, won in summarise(
        runs["parent"], runs["change"], better
    ):
        print(f"{name:<20} {parent:>12.4f} {change:>12.4f} {ratio:>8.4f} "
              f"{low:>8.4f}-{high:<8.4f}  {won}/{args.pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
