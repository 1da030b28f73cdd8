"""Command line: ``python -m perfbench run|trace|aa``.

``run`` is the command ``BENCHMARK.json`` names.  It prints a readable
report and, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (``trace`` is shorthand for ``run --trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

from perfbench.metrics import END_TO_END, PER_LAYER

__all__ = ["main", "REPRO_SWITCHES"]

#: Environment switches that change which code a stack runs; a benchmark
#: run must not inherit them from the shell.
REPRO_SWITCHES = ("REPRO_TABLE", "REPRO_SANITIZE", "REPRO_FAULTS", "REPRO_WORKERS")


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path and import from it.

    The benchmark measures the checkout it lives in, never an installed
    copy: if ``src/repro`` is missing the import fails and so does the run.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))
    for switch in REPRO_SWITCHES:
        os.environ.pop(switch, None)
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not from {src}"
        )


def _result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }
    )


def _run(args: argparse.Namespace) -> int:
    _import_repro()
    from perfbench.workloads import SPECS

    if args.workload not in SPECS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(SPECS)}"
        )
    if args.trace:
        from perfbench.layers import trace_layers

        traced = trace_layers(args.workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"perfbench trace  workload={args.workload} seed={args.seed}")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<46} {traced.metrics[name]:>16.4f} {unit}")
        print(f"  spans written to {traced.spans_path}")
        for failure in traced.failures:
            print(f"  FAILED {failure}")
        print(
            _result_line(
                traced.failed == 0, traced.attempted, traced.failed,
                traced.metrics, units,
            )
        )
        return 1 if traced.failed else 0

    from perfbench.measure import measure

    report = measure(args.workload, args.seed, args.seconds)
    units = {name: unit for name, unit, *_ in END_TO_END}
    walls = report.pass_walls_s
    quartiles = statistics.quantiles(walls, n=4)
    print(
        f"perfbench run  workload={args.workload} seed={args.seed} "
        f"passes={report.passes}"
    )
    print(
        f"  pass wall over {len(walls)} passes: median {quartiles[1] * 1e3:.2f} ms, "
        f"quartiles {quartiles[0] * 1e3:.2f}-{quartiles[2] * 1e3:.2f} ms, "
        f"max {max(walls) * 1e3:.2f} ms, total {sum(walls):.2f} s"
    )
    print(f"  accesses_per_s (not gated): {report.accesses_per_s:,.0f} 1/s")
    calibration = report.calibration
    print(
        f"  calibration kernel over {calibration['runs']} runs: median "
        f"{calibration['median_ms']:.2f} ms, CV {calibration['cv']:.3f}"
    )
    for name, unit, better, bound, family in END_TO_END:
        print(
            f"  {name:<20} {report.metrics[name]:>16.4f} {unit:<6} "
            f"({family}, {better} is better, bound {bound})"
        )
    for failure in report.failures:
        print(f"  FAILED {failure}")
    print(
        _result_line(
            report.failed == 0, report.attempted, report.failed,
            report.metrics, units,
        )
    )
    return 1 if report.failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        command = commands.add_parser(name)
        command.add_argument("--workload", required=True)
        command.add_argument("--seed", type=int, default=42)
        command.add_argument(
            "--seconds", type=float, default=10.0,
            help="nominal timed seconds; scales the fixed pass count",
        )
        command.add_argument(
            "--trace", type=int, choices=(0, 1), default=int(name == "trace")
        )
        command.set_defaults(handler=_run)
    aa = commands.add_parser("aa", help="two sets of runs of the same code")
    aa.add_argument("--sets", type=int, default=2)
    aa.add_argument("--runs", type=int, default=1)
    aa.set_defaults(handler=_aa)
    args = parser.parse_args(argv)
    return args.handler(args)


def _aa(args: argparse.Namespace) -> int:
    from perfbench.aa import run_aa

    return run_aa(args.sets, args.runs)
