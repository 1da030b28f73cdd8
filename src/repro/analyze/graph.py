"""Whole-program import graph: modules, edges, layers, cycles.

Per-file AST rules cannot see cross-package structure: a policy that
imports the serving layer parses fine in isolation, and a two-module
import cycle is invisible unless both files are on the table at once.
This module gives the lint driver that whole-program view:

* :func:`extract_edges` — pull every ``import``/``from`` of a ``repro``
  module out of one parsed file, tagged with whether the import is
  *deferred* (function-scope) and whether it is erased at runtime
  (``if TYPE_CHECKING:``);
* :class:`ProjectGraph` — the assembled graph over all linted files, with
  best-effort resolution of import targets onto collected modules and
  Tarjan SCC cycle detection over the module-scope edges;
* :data:`LAYER_DEPS` — the declared architecture DAG: for every
  ``repro`` package, the set of ``repro`` packages it may import.

The layering contract (enforced as rule R008 in
:mod:`repro.analyze.rules`):

* ``repro.analyze`` stands alone — it may import only ``repro.errors``,
  so the tooling can never be broken by the code it checks;
* the simulation core layers bottom-up as ``errors < storage <
  {policies, faults, analysis} < bufferpool < {workloads, core,
  prefetch} < engine < bench < cli``;
* ``repro.policies`` and ``repro.bufferpool`` in particular must never
  import the engine/bench/faults-serving layers above them;
* no import cycles at module granularity (module-scope imports only —
  a *deferred* import is the sanctioned way to break a runtime cycle,
  but it still must respect the layer direction).

``TYPE_CHECKING``-gated imports are exempt from both checks: they are
erased at runtime and exist precisely to annotate across layers.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "LAYER_DEPS",
    "ImportEdge",
    "ProjectGraph",
    "extract_edges",
    "package_of",
    "validate_layer_declaration",
]


@dataclass(frozen=True)
class ImportEdge:
    """One intra-``repro`` import, with everything a graph rule needs.

    The edge is self-contained (plain strings and ints) so the parallel
    per-file pass can extract edges inside worker processes and ship
    them back to the orchestrator for graph assembly.
    """

    src_path: str
    src_module: str
    target: str
    lineno: int
    col: int
    deferred: bool
    type_checking: bool
    #: Suppression tags present on the import's source line, captured at
    #: extraction time so graph rules can honour escape hatches without
    #: re-reading the file.
    tags: frozenset[str] = field(default_factory=frozenset)


def _is_type_checking_test(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str | None:
    """Absolute dotted target of a relative ``from . import`` statement."""
    parts = module.split(".")
    # A package's own __init__ counts as one level deeper than its name.
    keep = len(parts) - node.level + (1 if is_package else 0)
    if keep < 0:
        return None
    base = parts[:keep]
    if node.module:
        base.append(node.module)
    return ".".join(base) if base else None


def extract_edges(
    path: str,
    module: str,
    tree: ast.Module,
    line_tags: dict[int, frozenset[str]] | None = None,
    is_package: bool = False,
) -> list[ImportEdge]:
    """All intra-``repro`` import edges of one parsed file."""
    edges: list[ImportEdge] = []
    tags = line_tags or {}

    def record(node: ast.stmt, target: str, deferred: bool, tc: bool) -> None:
        if target != "repro" and not target.startswith("repro."):
            return
        edges.append(
            ImportEdge(
                src_path=path,
                src_module=module,
                target=target,
                lineno=node.lineno,
                col=node.col_offset,
                deferred=deferred,
                type_checking=tc,
                tags=tags.get(node.lineno, frozenset()),
            )
        )

    def visit(body: list[ast.stmt], deferred: bool, tc: bool) -> None:
        for node in body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    record(node, alias.name, deferred, tc)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = _resolve_relative(module, is_package, node)
                else:
                    base = node.module
                if base is None:
                    continue
                # Record one edge per imported name: ``from repro.storage
                # import device`` targets the submodule, and ``from repro
                # import errors`` the actual module rather than the whole
                # root package.  Symbol imports over-shoot by one component
                # and fall back to the module via longest-prefix resolve.
                for alias in node.names:
                    if alias.name == "*":
                        record(node, base, deferred, tc)
                    else:
                        record(node, f"{base}.{alias.name}", deferred, tc)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True, tc)
            elif isinstance(node, ast.ClassDef):
                # Class-scope imports run at module import time.
                visit(node.body, deferred, tc)
            elif isinstance(node, ast.If):
                gated = tc or _is_type_checking_test(node.test)
                visit(node.body, deferred, gated)
                visit(node.orelse, deferred, tc)
            elif isinstance(node, ast.Try):
                visit(node.body, deferred, tc)
                for handler in node.handlers:
                    visit(handler.body, deferred, tc)
                visit(node.orelse, deferred, tc)
                visit(node.finalbody, deferred, tc)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                visit(node.body, deferred, tc)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                visit(node.body, deferred, tc)
                visit(node.orelse, deferred, tc)
    visit(tree.body, False, False)
    return edges


def package_of(module: str) -> str:
    """The layer key of a dotted module: its top-level ``repro`` package.

    Top-level *modules* (``repro.errors``, ``repro.cli``,
    ``repro.__main__``) and the root package itself are their own layer
    keys; everything else maps to its first two components
    (``repro.policies.lru`` -> ``repro.policies``).
    """
    parts = module.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else parts[0]


#: Everything a top-of-stack aggregator may reach.
_ALL_CORE = frozenset({
    "repro.errors", "repro.analysis", "repro.analyze", "repro.storage",
    "repro.policies", "repro.faults", "repro.workloads", "repro.bufferpool",
    "repro.prefetch", "repro.core", "repro.engine", "repro.cluster",
})

#: The declared layer DAG: package -> repro packages it may import
#: directly.  Edges *within* a package are always allowed.  R008 flags
#: any intra-``repro`` import not blessed here.
LAYER_DEPS: dict[str, frozenset[str]] = {
    # Foundation: the shared exception vocabulary imports nothing.
    "repro.errors": frozenset(),
    # Pure math (Che's approximation, the ideal-speedup model).
    "repro.analysis": frozenset({"repro.errors"}),
    # The analysis tooling stands alone: it must be able to lint and
    # sanitize every layer without being importable *from* none of them
    # creating a tangle — only the error types are shared.
    "repro.analyze": frozenset({"repro.errors"}),
    # Device model: SSD latency/FTL/virtual clock.
    "repro.storage": frozenset({"repro.errors"}),
    # Replacement policies see pages only through PageStateView.
    "repro.policies": frozenset({"repro.errors"}),
    # Fault injection wraps devices.
    "repro.faults": frozenset({"repro.errors", "repro.storage"}),
    # The pool: descriptors, translation table, WAL, recovery, layout.
    "repro.bufferpool": frozenset({
        "repro.errors", "repro.analyze", "repro.faults", "repro.policies",
        "repro.storage",
    }),
    # Workload generators build schemas on the page-layout layer.
    "repro.workloads": frozenset({
        "repro.errors", "repro.storage", "repro.bufferpool",
    }),
    # Prefetchers observe the request stream.
    "repro.prefetch": frozenset({"repro.errors", "repro.workloads"}),
    # ACE: concurrent write-back/eviction over the pool.
    "repro.core": frozenset({
        "repro.errors", "repro.bufferpool", "repro.faults", "repro.policies",
        "repro.prefetch", "repro.storage",
    }),
    # Execution + serving: replays traces, admission control, breaker.
    "repro.engine": frozenset({
        "repro.errors", "repro.storage", "repro.workloads", "repro.bufferpool",
        "repro.core", "repro.policies",
    }),
    # Sharded cluster: shard routing/placement plus a parallel executor
    # that builds complete per-shard stacks and replays them through the
    # engine.  Replica groups consume the node-level fault schedules from
    # ``repro.faults``.
    "repro.cluster": frozenset({
        "repro.errors", "repro.storage", "repro.policies", "repro.bufferpool",
        "repro.core", "repro.engine", "repro.workloads", "repro.faults",
    }),
    # Verification engines: exhaustive crash-point enumeration drives the
    # execution layer against crash-hooked stacks.
    "repro.verify": frozenset({
        "repro.errors", "repro.storage", "repro.policies", "repro.bufferpool",
        "repro.core", "repro.engine", "repro.workloads",
    }),
    # The experiment harness may use everything below it.
    "repro.bench": _ALL_CORE,
    # Entry points see the whole world.
    "repro.cli": _ALL_CORE | {"repro.bench", "repro.verify"},
    "repro.__main__": _ALL_CORE | {"repro.bench", "repro.cli", "repro.verify"},
    # The root package re-exports the public API.
    "repro": _ALL_CORE | {"repro.bench", "repro.verify"},
}


def validate_layer_declaration(
    deps: dict[str, frozenset[str]] | None = None,
) -> None:
    """Assert the declared layering is itself a DAG over known packages.

    Raises ``ValueError`` on an unknown dependency or a declaration
    cycle — a broken declaration must fail loudly, not silently admit
    every import.
    """
    deps = LAYER_DEPS if deps is None else deps
    for package, allowed in deps.items():
        unknown = allowed - deps.keys()
        if unknown:
            raise ValueError(
                f"layer {package!r} allows unknown packages: {sorted(unknown)}"
            )
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def walk(package: str, trail: tuple[str, ...]) -> None:
        mark = state.get(package)
        if mark == 1:
            return
        if mark == 0:
            cycle = trail[trail.index(package):] + (package,)
            raise ValueError(f"layer declaration cycle: {' -> '.join(cycle)}")
        state[package] = 0
        for dep in sorted(deps[package]):
            walk(dep, trail + (package,))
        state[package] = 1

    for package in deps:
        walk(package, ())


class ProjectGraph:
    """The import graph over every module the lint run collected."""

    def __init__(self, edges: Iterable[ImportEdge], modules: Iterable[str]):
        self.edges: list[ImportEdge] = sorted(
            edges, key=lambda e: (e.src_module, e.lineno, e.col, e.target)
        )
        self.modules: frozenset[str] = frozenset(modules)

    def resolve(self, target: str) -> str | None:
        """Longest known-module prefix of an import target, if any.

        ``from repro.storage.device import SimulatedSSD`` resolves to
        ``repro.storage.device``; ``from repro.storage import device``
        resolves to ``repro.storage.device`` when that module was
        collected, else to ``repro.storage``.
        """
        if target in self.modules:
            return target
        parts = target.split(".")
        while parts:
            parts.pop()
            candidate = ".".join(parts)
            if candidate in self.modules:
                return candidate
        return None

    def runtime_module_edges(self) -> dict[str, set[str]]:
        """Module-scope, non-TYPE_CHECKING edges between collected modules.

        ``from package import submodule`` imports the submodule at
        runtime, so when ``<package>.<name>`` is itself a collected
        module the edge targets it, not just the package ``__init__``.
        """
        adjacency: dict[str, set[str]] = {m: set() for m in self.modules}
        for edge in self.edges:
            if edge.deferred or edge.type_checking:
                continue
            resolved = self.resolve(edge.target)
            if resolved is not None and resolved != edge.src_module:
                adjacency.setdefault(edge.src_module, set()).add(resolved)
        return adjacency

    def cycles(self) -> list[list[str]]:
        """Module-granularity import cycles (Tarjan SCCs of size > 1).

        Each cycle is returned in a deterministic rotation: starting at
        its lexicographically smallest module, following actual edges.
        """
        adjacency = self.runtime_module_edges()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = 0

        # Iterative Tarjan: the shipped tree is ~100 modules, but fixture
        # trees and future growth should not be bounded by recursion depth.
        for root in sorted(adjacency):
            if root in index:
                continue
            work: list[tuple[str, Iterator[str]]] = [
                (root, iter(sorted(adjacency.get(root, ()))))
            ]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, children = work[-1]
                advanced = False
                for child in children:
                    if child not in index:
                        index[child] = low[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append(
                            (child, iter(sorted(adjacency.get(child, ()))))
                        )
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        sccs.append(component)
        return [self._rotate_cycle(scc, adjacency) for scc in sorted(sccs)]

    @staticmethod
    def _rotate_cycle(scc: list[str], adjacency: dict[str, set[str]]) -> list[str]:
        members = set(scc)
        start = min(scc)
        ordered = [start]
        current = start
        while True:
            nxt = min(
                (m for m in adjacency.get(current, ()) if m in members and
                 (m not in ordered or m == start)),
                default=None,
            )
            if nxt is None or nxt == start:
                break
            ordered.append(nxt)
            current = nxt
        # Fall back to sorted membership if edge-following stalled (e.g.
        # a dense SCC where the greedy walk closed early).
        if len(ordered) < len(scc):
            ordered = sorted(scc)
        return ordered

    def edge_for(self, src_module: str, target_module: str) -> ImportEdge | None:
        """The first edge from ``src_module`` that resolves to the target."""
        for edge in self.edges:
            if edge.src_module != src_module:
                continue
            if edge.deferred or edge.type_checking:
                continue
            if self.resolve(edge.target) == target_module:
                return edge
        return None
