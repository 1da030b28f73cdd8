"""``benchmarks/line_reach.py`` groups unreached lines as it says it does.

The tool's full run traces every entry point (minutes; CI's ``line-reach``
job).  Here it classifies a toy package traced in-process: a function no
call reaches is a candidate, a ``raise``-only branch and a returned
exception are error paths, a function only ``tests/`` names is group 2,
and a ``KEPT`` row whose code ran is stale.
"""

from __future__ import annotations

import importlib
import sys
import textwrap

from benchmarks import line_reach

TOY = '''
def used(x):
    if x < 0:
        raise ValueError(x)
    return x + 1


def refusal(x):
    if x > 10:
        return ValueError(x)
    return None


def branchy(x):
    if x == 42:
        x = x * 2
        x = x - 1
    return x


def orphan():
    return 1


def named_by_tests():
    return 2


def kept_but_run():
    return 3
'''


def _classify(tmp_path, kept):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text(textwrap.dedent(TOY))
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_toy.py").write_text("from toy.core import named_by_tests\n")
    sys.path.insert(0, str(tmp_path))
    try:
        def run():
            core = importlib.import_module("toy.core")
            core.used(1)
            core.refusal(1)
            core.branchy(1)
            core.kept_but_run()

        reached = line_reach.trace_lines(run, package)
    finally:
        sys.path.remove(str(tmp_path))
        for name in ("toy.core", "toy"):
            sys.modules.pop(name, None)
    return line_reach.classify(reached, kept, package, tests)


def test_a_toy_package_is_grouped(tmp_path):
    report = _classify(tmp_path, {"toy.core:kept_but_run": "a stale row"})
    groups = report.groups["toy.core"]
    assert set(groups["error"].values()) == {"used", "refusal"}
    assert set(groups["tests"].values()) == {"named_by_tests"}
    assert set(groups["candidate"].values()) == {"branchy", "orphan"}
    assert len([name for name in groups["candidate"].values() if name == "branchy"]) == 2
    assert report.stale == ["toy.core:kept_but_run"]


def test_a_kept_row_covers_its_candidate(tmp_path):
    report = _classify(tmp_path, {"toy.core:orphan": "the reason it stays"})
    groups = report.groups["toy.core"]
    assert set(groups["kept"].values()) == {"orphan"}
    assert set(groups["candidate"].values()) == {"branchy"}
    assert report.stale == []
