"""Tests for the top-level public API surface."""

import ast
import re

import repro
from tests._source import REPO

#: A ``from repro import ...`` statement, one line or parenthesised.
REPRO_IMPORT = re.compile(r"from repro import (?:\([^)]*\)|[^\n]*)")


def documented_imports() -> dict[str, str]:
    """``name -> where`` for every name a ``from repro import`` in the
    README, ``docs/*.md``, ``examples/*.py`` or the package docstring takes."""
    texts = {
        "repro.__doc__": repro.__doc__,
        "README.md": (REPO / "README.md").read_text(),
    }
    for path in [*sorted(REPO.glob("docs/*.md")), *sorted(REPO.glob("examples/*.py"))]:
        texts[str(path.relative_to(REPO))] = path.read_text()
    names = {}
    for where, text in texts.items():
        for statement in REPRO_IMPORT.findall(text):
            for node in ast.walk(ast.parse(statement)):
                if isinstance(node, ast.ImportFrom):
                    names.update({alias.name: where for alias in node.names})
    return names


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ names missing symbol {name}"

    def test_every_documented_import_is_exported(self):
        documented = documented_imports()
        assert len(documented) > 20  # the scan finds the examples' imports
        missing = {
            name: where
            for name, where in documented.items()
            if name not in repro.__all__
        }
        assert missing == {}

    def test_all_is_exactly_what_the_package_imports(self):
        tree = ast.parse((REPO / "src/repro/__init__.py").read_text())
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert sorted(repro.__all__) == sorted(imported | {"__version__"})

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_paper_constants(self):
        assert len(repro.PAPER_DEVICES) == 4
        assert len(repro.PAPER_WORKLOADS) == 4

    def test_quickstart_snippet_from_docstring(self):
        """The module docstring's quickstart must actually run."""
        device = repro.SimulatedSSD(repro.PCIE_SSD, num_pages=10_000)
        device.format_pages(range(10_000))
        manager = repro.ACEBufferPoolManager(
            capacity=600,
            policy=repro.LRUPolicy(),
            device=device,
            config=repro.ACEConfig.for_device(
                repro.PCIE_SSD, prefetch_enabled=True
            ),
        )
        manager.write_page(42)
        assert manager.read_page(42) == 1

    def test_errors_hierarchy(self):
        assert issubclass(repro.PoolExhaustedError, repro.BufferPoolError)
        assert issubclass(repro.BufferPoolError, repro.ReproError)
        assert issubclass(repro.PageNotBufferedError, repro.BufferPoolError)
