"""Census of reach: every module and public name earns its place.

The program's entry points are ``repro.cli`` (and ``python -m repro``), the
``benchmarks/`` scripts and ``perfbench/`` (its own tests excluded).  From
them the census follows every name used, transitively, over one parse of
each tree (``tests/_source.py``):

* a name resolves through the using module's imports, aliases included
  (``manager.py`` imports ``env_enabled as _sanitize_env_enabled``), and an
  import inside a function binds only in that function;
* an ``import`` statement is not a use, so a package ``__init__``'s
  re-exports reach nothing — a use of ``repro.cluster.run_cluster`` reaches
  the definition in ``repro.cluster.engine``, not everything the package
  imports;
* reaching a function or class reaches its module's top-level code (a
  registry dict, a profile constant) and every name its own body uses;
* a module used as a value, not only as the base of an attribute (the
  CLI's ``_VERDICTS`` table), reaches every public name it defines.

The scope is modules and their module-level public functions and classes.
A module or name the program does not reach is either deleted, with its
tests, or listed in ``KEPT`` with the reason it stays.

Re-exports are a separate, wider check: a subpackage ``__init__`` imports
a name only if some module (tests and examples included) or a docs
snippet imports it through that package.
"""

from __future__ import annotations

import ast
import re
from collections import deque
from collections.abc import Iterable
from functools import cache

from tests._source import REPO, SRC, ImportTable, trees

#: Module or ``module.name`` the program does not reach -> why it stays.
#: A listed module covers its names.
KEPT = {
    "repro.analysis.che": (
        "Che's approximation: tests compare simulated LRU hit ratios "
        "against it; docs/tuning.md and examples/capacity_planning.py size "
        "a pool with it"
    ),
    "repro.storage.smart": (
        "the paper's §VI observes wear through SMART counters; "
        "examples/wear_analysis.py reads them"
    ),
    "repro.prefetch.sequential": (
        "NPL lookahead, the simple prefetcher examples/"
        "prefetcher_comparison.py compares ACE's Reader against"
    ),
    "repro.policies.registry.register_policy": (
        "the extension point examples/custom_policy.py demonstrates"
    ),
}

#: The program's entry points, beside ``repro.cli`` and ``repro.__main__``.
PROGRAM_ROOTS = ("benchmarks", "perfbench")

#: Where a re-exported name may be imported through its package.
IMPORTING_ROOTS = (SRC, "tests", "benchmarks", "perfbench", "examples")
DOCS = ("README.md", "DESIGN.md", "docs/*.md")
SNIPPET_IMPORT = re.compile(r"from (repro[\w.]*) import \(?([\w\s,]+)\)?")

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Census:
    """Who reaches what among ``modules``' modules and top-level definitions."""

    def __init__(self, modules: dict[str, ast.Module]) -> None:
        self.modules = modules
        self.defined = {
            module: {
                node.name: node
                for node in tree.body
                if isinstance(node, DEFINITIONS)
            }
            for module, tree in modules.items()
        }
        self.imports = {
            module: _top_level_imports(tree) for module, tree in modules.items()
        }

    def canonical(self, dotted: str) -> str | None:
        """The module or ``module.definition`` a dotted name denotes,
        following re-exports to the defining module."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            if cut == len(parts) or parts[cut] not in self.imports[module].names:
                if cut < len(parts) and parts[cut] in self.defined[module]:
                    return f"{module}.{parts[cut]}"
                return module
            target = self.imports[module].names[parts[cut]]
            return self.canonical(".".join([target, *parts[cut + 1:]]))
        return None

    def uses(self, scope: ast.AST, module: str, imports: ImportTable) -> set[str]:
        """Everything ``scope`` (in ``module``) names, canonicalised."""
        nodes = list(ast.walk(scope))
        local = [
            node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        imports = imports.within(ast.Module(body=local, type_ignores=[]))
        own = self.defined.get(module, {})
        bases = {id(node.value) for node in nodes if isinstance(node, ast.Attribute)}
        found = set()
        for node in nodes:
            if isinstance(node, ast.Name) and node.id in own:
                found.add(f"{module}.{node.id}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                dotted = imports.resolve(node) or ""
                target = self.canonical(dotted)
                if target is not None:
                    found.add(target)
                if dotted in self.modules and id(node) not in bases:
                    # A module passed around as a value (the CLI's table of
                    # verdict modules) is used through any of its names.
                    found |= {
                        f"{dotted}.{name}" for name in self.defined[dotted]
                        if not name.startswith("_")
                    }
        return found

    def edges(self, key: str) -> set[str]:
        if key in self.modules:
            tree = self.modules[key]
            return set().union(*(
                self.uses(node, key, self.imports[key])
                for node in tree.body
                if not isinstance(node, DEFINITIONS)
            ))
        module, name = key.rsplit(".", 1)
        definition = self.defined[module][name]
        return {module} | self.uses(definition, module, self.imports[module])

    def reach(self, roots: dict[str, ast.Module]) -> set[str]:
        """Every key the ``roots`` modules use, transitively."""
        seen = {module for module in roots if module in self.modules}
        for module, tree in roots.items():
            imports = _top_level_imports(tree)
            for node in tree.body:
                seen |= self.uses(node, module, imports)
        queue = deque(seen)
        while queue:
            for key in self.edges(queue.popleft()) - seen:
                seen.add(key)
                queue.append(key)
        return seen

    def unreached(self, reached: set[str]) -> set[str]:
        """Modules (not packages) and public names outside ``reached``; an
        unreached module stands for its names."""
        found = set()
        for module in self.modules:
            if any(other.startswith(f"{module}.") for other in self.modules):
                continue  # a package: its __init__ only re-exports
            if module not in reached:
                found.add(module)
                continue
            found |= {
                f"{module}.{name}"
                for name in self.defined[module]
                if not name.startswith("_") and f"{module}.{name}" not in reached
            }
        return found


def _top_level_imports(tree: ast.Module) -> ImportTable:
    """The module's own imports, without those local to its functions."""
    statements = [node for node in tree.body if not isinstance(node, DEFINITIONS)]
    return ImportTable(ast.Module(body=statements, type_ignores=[]))


def _roots(directories: Iterable[str]) -> dict[str, ast.Module]:
    return {
        module: tree
        for directory in directories
        for module, tree in trees(directory).items()
        if not module.startswith("perfbench.tests")
    }


@cache
def census() -> Census:
    return Census(trees(SRC))


@cache
def program_reach() -> frozenset[str]:
    roots = _roots(PROGRAM_ROOTS)
    roots |= {module: trees(SRC)[module] for module in ("repro.cli", "repro.__main__")}
    return frozenset(census().reach(roots))


def test_every_module_and_public_name_is_reached_or_kept():
    assert census().unreached(set(program_reach())) == set(KEPT)


def test_kept_code_is_exercised_by_an_example():
    """A ``KEPT`` row is code an example runs (CI runs every example), not
    dead code."""
    reached = census().reach(_roots(("examples",)))
    assert {key for key in KEPT if key not in reached} == set()


def _reexports() -> set[str]:
    """``package.name`` for each name a subpackage ``__init__`` imports;
    ``repro``'s own are the public API, pinned by ``test_public_api.py``."""
    modules = trees(SRC)
    return {
        f"{package}.{alias.asname or alias.name}"
        for package, tree in modules.items()
        if package != "repro"
        and any(module.startswith(f"{package}.") for module in modules)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and not node.level
        and node.module != "__future__"
        for alias in node.names
    }


def _imported_through_packages() -> set[str]:
    """Every dotted name a module imports or spells out, and every name a
    docs snippet imports."""
    found = set()
    for root in IMPORTING_ROOTS:
        for tree in trees(root).values():
            imports = ImportTable(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and not node.level:
                    found |= {f"{node.module}.{alias.name}" for alias in node.names}
                elif isinstance(node, ast.Attribute):
                    found.add(imports.resolve(node) or "")
    for pattern in DOCS:
        for doc in REPO.glob(pattern):
            for module, names in SNIPPET_IMPORT.findall(doc.read_text()):
                found |= {f"{module}.{name.strip()}" for name in names.split(",")}
    return found


def test_every_reexport_is_imported_through_its_package():
    """A name nothing imports through the package is imported from the
    module that defines it, and the ``__init__`` drops it."""
    assert _reexports() - _imported_through_packages() == set()


def test_an_aliased_import_is_followed():
    """``env_enabled`` is safety code the manager reaches only through an
    alias; a scan that ignored the alias would report it unreached."""
    manager = ImportTable(trees(SRC)["repro.bufferpool.manager"])
    aliases = {
        name for name, target in manager.names.items()
        if target == "repro.analyze.sanitizer.env_enabled"
    }
    assert aliases == {"_sanitize_env_enabled"}
    assert "repro.analyze.sanitizer.env_enabled" in program_reach()


def _parse(**sources: str) -> dict[str, ast.Module]:
    return {
        module.replace("__", "."): ast.parse(text)
        for module, text in sources.items()
    }


def test_a_reexport_is_not_reach_but_a_use_through_it_is():
    package = _parse(
        pkg="from pkg.impl import used, unused\n",
        pkg__impl=(
            "def used(): return helper()\n"
            "def helper(): pass\n"
            "def unused(): pass\n"
        ),
    )
    toy = Census(package)
    imported = toy.reach(_parse(main="import pkg\n"))
    assert toy.unreached(imported) == {"pkg.impl"}
    called = toy.reach(_parse(main="from pkg import used as run\nrun()\n"))
    assert toy.unreached(called) == {"pkg.impl.unused"}
    assert "pkg.impl.helper" in called


def test_a_function_local_import_binds_only_there():
    package = _parse(
        pkg="", pkg__a="def report(): pass\n", pkg__b="def report(): pass\n",
    )
    toy = Census(package)
    main = _parse(main=(
        "def first():\n    from pkg.a import report\n    report()\n"
        "def second():\n    from pkg.b import report\n"
    ))
    assert toy.unreached(toy.reach(main)) == {"pkg.b"}


def test_a_module_used_as_a_value_reaches_its_public_names():
    """A table of modules is called through any of their names; an
    attribute use reaches only the name it spells."""
    package = _parse(
        pkg="",
        pkg__verdict="def run(): pass\ndef report(): pass\ndef _private(): pass\n",
        pkg__other="def run(): pass\ndef report(): pass\n",
    )
    toy = Census(package)
    main = _parse(main=(
        "from pkg import verdict, other\n"
        "TABLE = {'verdict': verdict}\n"
        "other.run()\n"
    ))
    assert toy.unreached(toy.reach(main)) == {"pkg.other.report"}
