"""Census of the environment variables ``src/repro`` consults.

Every environment switch is a configuration axis nobody declared in a
config object, so the set is pinned: adding one has to be argued for
here.  The census is an AST walk over every ``os.environ`` / ``os.getenv``
use in the package — keys given as literals or as module-level string
constants (local or imported) — not a list of files to look in.
"""

from __future__ import annotations

import ast

from tests._source import SRC, ImportTable, trees

EXPECTED = {
    "REPRO_SANITIZE",
    "REPRO_FAULTS",
    "REPRO_WORKERS",
    "REPRO_RESULTS_DIR",
}


def _string_constants(modules: dict[str, ast.Module]) -> dict[str, str]:
    """``module.NAME -> value`` for every module-level ``NAME = "..."``."""
    constants = {}
    for module, tree in modules.items():
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                constants[f"{module}.{node.targets[0].id}"] = node.value.value
    return constants


def _key_nodes(tree: ast.Module, imports: ImportTable):
    """The key expression of every environment use in one module."""
    parents = {
        child: parent
        for parent in ast.walk(tree)
        for child in ast.iter_child_nodes(parent)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and imports.resolve(node.func) == "os.getenv":
            yield node, node.args[0]
        elif (
            isinstance(node, (ast.Attribute, ast.Name))
            and imports.resolve(node) == "os.environ"
        ):
            parent = parents[node]
            if isinstance(parent, ast.Subscript):
                yield node, parent.slice
            elif isinstance(parent, ast.Attribute) and isinstance(
                parents[parent], ast.Call
            ):
                yield node, parents[parent].args[0]
            else:
                # ``dict(os.environ)``, ``"X" in os.environ`` …: a use
                # whose key this census cannot name.
                yield node, None


def environment_variables() -> set[str]:
    constants = _string_constants(trees(SRC))
    found = set()
    for module, tree in trees(SRC).items():
        imports = ImportTable(tree)
        for node, key in _key_nodes(tree, imports):
            where = f"{module}:{node.lineno}"
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                found.add(key.value)
            elif isinstance(key, ast.Name):
                qualified = imports.names.get(key.id, f"{module}.{key.id}")
                assert qualified in constants, (
                    f"{where}: environment key {key.id!r} is not a "
                    "module-level string constant"
                )
                found.add(constants[qualified])
            else:
                raise AssertionError(
                    f"{where}: environment use without a nameable key"
                )
    return found


def test_environment_switches_are_exactly_the_declared_four():
    assert environment_variables() == EXPECTED
