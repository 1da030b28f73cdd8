"""Census of the paper's reports: one bench per results file, one results
file per EXPERIMENTS.md section.

CI's ``figures`` job regenerates ``results/`` with ``pytest benchmarks/
--benchmark-only``, reassembles EXPERIMENTS.md with ``repro summary`` and
fails on any difference.  That check is only as good as the mapping it
rests on: a report no bench writes would never be regenerated, one that two
benches write would depend on their order, and a section that quotes no
report (or two) would not follow its figure.  The mapping is read from the
source (``write_report`` calls with a literal name, in a bench or in a
``repro`` function a bench imports), so this runs in tier-1 without running
a bench.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import cache

from tests._source import REPO, SRC, ImportTable, scopes, trees

WRITE_REPORT = "repro.bench.report.write_report"
RESULTS = REPO / "results"


@cache
def report_writers() -> dict[str, set[str]]:
    """``function -> report names`` its own ``write_report`` calls pass."""
    found: dict[str, set[str]] = {}
    for root in (SRC, "benchmarks"):
        for module, tree in trees(root, "write_report").items():
            imports = ImportTable(tree)
            for function, scope in scopes(tree, module):
                for node in ast.walk(scope):
                    if not (
                        isinstance(node, ast.Call)
                        and imports.within(scope).resolve(node.func) == WRITE_REPORT
                    ):
                        continue
                    name = node.args[0]
                    assert isinstance(name, ast.Constant), (
                        f"{function}:{node.lineno}: a report name must be a literal"
                    )
                    found.setdefault(function, set()).add(name.value)
    return found


@cache
def bench_reports() -> dict[str, set[str]]:
    """``bench module -> report names`` it writes, itself or through an
    imported ``repro`` function."""
    writers = report_writers()
    found = {}
    for module, tree in trees("benchmarks").items():
        if not module.split(".")[-1].startswith("bench_"):
            continue
        own = {name for f, names in writers.items() if f.startswith(f"{module}.")
               for name in names}
        imported = {name for target in ImportTable(tree).names.values()
                    for name in writers.get(target, ())}
        found[module] = own | imported
    return found


def results_files() -> dict[str, str]:
    return {path.stem: path.read_text().rstrip() for path in RESULTS.glob("*.txt")}


def test_every_results_file_is_written_by_exactly_one_bench():
    writes = Counter(name for names in bench_reports().values() for name in names)
    assert {name: writes[name] for name in results_files()} == dict.fromkeys(
        results_files(), 1
    )
    assert set(writes) <= set(results_files()), "a bench writes an uncommitted report"


def test_every_report_writer_in_the_program_is_run_by_a_bench():
    """A ``repro`` function that writes a report no bench imports would be
    regenerated by the CLI only, outside the ``figures`` job."""
    benched = {target for module, tree in trees("benchmarks").items()
               for target in ImportTable(tree).names.values()}
    unbenched = {f for f in report_writers() if f.startswith("repro.")} - benched
    assert unbenched == set()


def test_every_experiments_section_quotes_exactly_one_results_file():
    sections = (REPO / "EXPERIMENTS.md").read_text().split("\n## ")[1:]
    reports = results_files()
    quoted = {
        section.splitlines()[0]: [stem for stem, text in reports.items()
                                  if f"```\n{text}\n```" in section]
        for section in sections
    }
    assert {title: len(stems) for title, stems in quoted.items()} == dict.fromkeys(
        quoted, 1
    )
    assert sorted(stem for stems in quoted.values() for stem in stems) == sorted(
        reports
    ), "a results file is quoted by no section, or by two"
