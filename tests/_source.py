"""The source trees the census tests walk, each parsed once per session."""

import ast
from functools import cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = "src/repro"


@cache
def trees(root: str, mentioning: str = "") -> dict[str, ast.Module]:
    """``dotted name -> AST`` of each module under ``root`` that says ``mentioning``."""
    directory, found = REPO / root, {}
    for path in sorted(directory.rglob("*.py")):
        parts = path.relative_to(directory.parent).with_suffix("").parts
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        if mentioning in (text := path.read_text()):
            found[name] = ast.parse(text, filename=str(path))
    return found


def scopes(tree: ast.Module, module: str):
    """``(qualified name, node)`` covering every node of the module once: a
    function owns its whole body, closures included; any other statement
    goes by the module or class whose body it sits in."""
    stack = [(module, tree)]
    while stack:
        prefix, scope = stack.pop()
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, ast.ClassDef):
                stack.append((f"{prefix}.{node.name}", node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{node.name}", node
            else:
                yield prefix, node


class ImportTable:
    """Resolve names through one module's ``import`` / ``from`` aliases."""

    def __init__(self, tree: ast.AST) -> None:
        self.names: dict[str, str] = {}  # "np" -> "numpy", "choice" -> "random.choice"
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    full = alias.name if alias.asname else root
                    self.names[alias.asname or root] = full
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    self.names[alias.asname or alias.name] = full

    def within(self, scope: ast.AST) -> "ImportTable":
        """This table with ``scope``'s own imports shadowing it: an import
        inside a function binds its name only there."""
        table = ImportTable(scope)
        table.names = {**self.names, **table.names}
        return table

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of a bare name or attribute chain, or None."""
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            return base and f"{base}.{node.attr}"
        return self.names.get(node.id) if isinstance(node, ast.Name) else None
