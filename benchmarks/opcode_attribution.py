"""Where a perfbench workload's opcodes go, function by function.

``python benchmarks/opcode_attribution.py <workload> [--seed N]
[--seconds S] [--scale F]`` runs ``perfbench.measure.measure`` unchanged
except that the opcode pass's counter also keys every opcode by
``(file, function)``.  The attributed total must equal the run's own
``opcodes_per_op x ops``: the table decomposes the gated metric, it is not
a second measurement.  ``--scale`` shrinks inputs as ``perfbench/tests`` do.
``--lines FUNC`` (a qualified name, ``_replay_turbo``) then breaks that
function's row down by source line; its lines must sum to its row.
"""

from __future__ import annotations

import argparse
import linecache
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.cli import _import_repro  # noqa: E402  (needs the path above)

_import_repro()  # this checkout's src/, no inherited REPRO_* switch: as `run`

from perfbench import workloads  # noqa: E402
from perfbench.measure import measure  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--lines", metavar="FUNC",
                        help="also print FUNC's opcodes/access by source line")
    args = parser.parse_args(argv)
    # Per code object: opcodes executed in it, frames of it entered; per
    # (code object, line) of --lines' function: opcodes executed there.
    opcodes, calls, lines, counted_ops = Counter(), Counter(), Counter(), 0

    def on_opcode(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return on_opcode

    def on_opcode_by_line(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
            lines[frame.f_code, frame.f_lineno or 0] += 1  # None: no line
        return on_opcode_by_line

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        calls[code] += 1
        if _qualname(code) == args.lines:
            return on_opcode_by_line
        return on_opcode

    def count_opcodes(call) -> int:
        """``perfbench.opcount.count_opcodes``, keyed by code object."""
        nonlocal counted_ops
        previous = sys.gettrace()
        sys.settrace(on_call)
        try:
            result = call()
        finally:
            sys.settrace(previous)
        counted_ops = getattr(result, "merged", result).ops
        return sum(opcodes.values())

    workloads.count_opcodes = count_opcodes
    report = measure(args.workload, args.seed, args.seconds, args.scale)
    per_op = report.metrics["opcodes_per_op"]
    if sum(opcodes.values()) != round(per_op * counted_ops):
        raise SystemExit("attributed opcodes differ from the run's own count")
    print(f"{args.workload} seed={args.seed}: {per_op:.3f} opcodes/access "
          f"over {counted_ops} accesses")
    print(f"{'opcodes/access':>14} {'calls/access':>12}  function")
    for code, count in opcodes.most_common():
        print(f"{count / counted_ops:14.3f} {calls[code] / counted_ops:12.4f}"
              f"  {_where(code)}")
    if args.lines is not None:
        return _print_lines(args.lines, opcodes, lines, counted_ops)
    return 0


def _qualname(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # 3.10 has no qualname


def _where(code) -> str:
    path = Path(code.co_filename)
    path = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
    return f"{path}:{_qualname(code)}"


def _print_lines(name: str, opcodes: Counter, lines: Counter, ops: int) -> int:
    """``--lines``: each code object named ``name``, opcodes/access per
    source line; exits non-zero unless its lines sum to its row."""
    codes = [code for code in opcodes if _qualname(code) == name]
    if not codes:
        raise SystemExit(f"--lines {name}: no such function ran")
    for code in codes:
        by_line = {line: n for (of, line), n in lines.items() if of is code}
        if sum(by_line.values()) != opcodes[code]:
            raise SystemExit(f"--lines {name}: the lines do not sum to its row")
        print(f"\n{_where(code)}: {opcodes[code] / ops:.3f} opcodes/access by line")
        print(f"{'opcodes/access':>14} {'line':>5}  source")
        for line, n in sorted(by_line.items()):
            source = linecache.getline(code.co_filename, line).strip() or "-"
            print(f"{n / ops:14.3f} {line:5}  {source}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
