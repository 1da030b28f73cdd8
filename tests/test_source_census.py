"""Census of the structural contracts the simulator's results rest on.

Each table below says "exactly these functions, each for the reason beside
it", in the shape of ``test_env_census`` and ``test_request_path_census``:
an AST walk over the whole of ``src/repro`` (the RNG census also walks
``tests`` and ``benchmarks``), not a list of files to look in.  A new site
has to be argued for here.  Contracts an AST cannot state — that
``eviction_order()`` is pure, that set order never reaches an output, that
results do not depend on the worker count, that every fault kind has a
dispatch — are runtime tests; ``docs/architecture.md`` ("Contracts pinned
by tests") names the test that holds each.
"""

from __future__ import annotations

import ast
import builtins
from collections import Counter, defaultdict
from functools import cache

import pytest

import repro.errors
from repro.errors import IOFaultError
from tests._source import SRC, ImportTable, scopes, trees

#: The node types the censuses below look at.
CENSUSED = (ast.Name, ast.Attribute, ast.ExceptHandler)


@cache
def nodes() -> list[tuple[str, str, ast.AST, ImportTable]]:
    """``(module, function, node, imports)`` for every censused node."""
    found = []
    for module, tree in trees(SRC).items():
        imports = ImportTable(tree)
        for function, scope in scopes(tree, module):
            for node in ast.walk(scope):
                if isinstance(node, CENSUSED):
                    found.append((module, function, node, imports))
    return found


def sites(table: dict[str, tuple[int, str]]) -> Counter:
    """``function -> count`` of a ``function -> (count, reason)`` table."""
    return Counter({function: count for function, (count, _) in table.items()})


# -- the host clock and the random streams ---------------------------------

#: function -> (reads of ``time``, why).  ``datetime`` is read nowhere.
WALL_CLOCK_READS = {
    "repro.cluster.engine._replay_shard": (
        2, "start and stop of the observed replay wall (ShardResult."
        "replay_wall_s) reported beside the modelled makespan",
    ),
    "repro.cluster.replication._replay_replicated_shard": (
        2, "the same, for a replica group's shard",
    ),
}

#: RNG constructors that are deterministic when given a seed.
SEEDED_CONSTRUCTORS = {"random.Random", "numpy.random.default_rng"}


def test_the_host_clock_is_read_only_beside_the_modelled_makespan():
    reads = Counter(
        function
        for _, function, node, imports in nodes()
        if isinstance(node, ast.Name)
        and (imports.resolve(node) or "").split(".")[0] in {"time", "datetime"}
    )
    assert reads == sites(WALL_CLOCK_READS)


@pytest.mark.parametrize("root", [SRC, "tests", "benchmarks"])
def test_every_random_stream_is_seeded(root):
    unseeded = []
    # A module whose source never says "random" cannot reach either RNG.
    for module, tree in trees(root, "random").items():
        imports = ImportTable(tree)
        unseeded += [
            f"{module}:{node.lineno} {target}()"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (target := imports.resolve(node.func) or "").startswith(
                ("random.", "numpy.random.")
            )
            and (target not in SEEDED_CONSTRUCTORS or not (node.args or node.keywords))
        ]
    assert unseeded == []


# -- who may touch the pool's internals ------------------------------------

#: A frame's state columns (the pool's, and the manager's ``_``-prefixed
#: aliases of them): the manager's O(1) mirror sets shadow them, so only
#: ``repro.bufferpool`` stores into them; policies read PageStateView.
FRAME_COLUMNS = {"page_of", "dirty_bits", "pin_counts", "prefetched_bits"}

#: function outside ``repro.bufferpool`` -> (stores into a frame column, why).
COLUMN_STORES = {
    "repro.engine.executor._replay_turbo": (
        10, "the miss routine's one inlined copy: a prefetch hit's bit, two "
        "installs, the dirty and clean marks, an eviction's two",
    ),
}

#: function -> (reaches into another object's ``_slots`` / ``_frame_of``,
#: why).  The translation structures belong to ``repro.bufferpool.table``;
#: everything else goes through ``table.lookup`` or the resident API.
TRANSLATION_READS = {
    "repro.bufferpool.manager.BufferPoolManager.__init__": (
        2, "binds the table's vector and map as the request path's aliases",
    ),
    "repro.bufferpool.recovery.simulate_crash": (
        2, "a crash clears those aliases, or a dead manager keeps serving hits",
    ),
    "repro.core.reader.Reader.select_prefetch_set": (
        1, "skips prefetch candidates that are already resident",
    ),
    "repro.analyze.sanitizer.InvariantSanitizer._check_pins": (
        1, "the sanitizer's ground truth is the table, not the alias it checks",
    ),
    "repro.analyze.sanitizer.InvariantSanitizer._check_free_list": (
        1, "the same ground truth",
    ),
    "repro.analyze.sanitizer.InvariantSanitizer._check_residency": (
        1, "the same ground truth",
    ),
    "repro.analyze.sanitizer.InvariantSanitizer._check_virtual_order": (
        1, "the same ground truth",
    ),
}


def _names_a_column(node: ast.AST) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name.lstrip("_") in FRAME_COLUMNS


def test_descriptor_bits_are_assigned_only_inside_the_bufferpool():
    """Every store into a frame column — an item or slice assignment, a
    ``__setitem__`` handed to ``map``, a rebinding of the column — sits in
    ``repro.bufferpool`` or in ``COLUMN_STORES``."""
    stores = Counter(
        function
        for module, tree in trees(SRC).items()
        if not module.startswith("repro.bufferpool.")
        for function, scope in scopes(tree, module)
        for node in ast.walk(scope)
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
            and _names_a_column(node.value))
        or (isinstance(node, ast.Attribute) and node.attr == "__setitem__"
            and _names_a_column(node.value))
        or (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and _names_a_column(node))
    )
    assert stores == sites(COLUMN_STORES)


def test_translation_internals_are_reached_only_from_these_places():
    reached = Counter(
        function
        for module, function, node, _ in nodes()
        if isinstance(node, ast.Attribute)
        and node.attr in {"_slots", "_frame_of"}
        and getattr(node.value, "id", None) != "self"
        and module != "repro.bufferpool.table"
    )
    assert reached == sites(TRANSLATION_READS)


# -- where an injected fault may be caught ---------------------------------

#: function -> (handlers that would catch an ``IOFaultError``, why).  A
#: handler catches one when it names the class, a subclass or a base class
#: (``ReproError``, ``Exception``), or is bare.  Every one of them retries,
#: repairs, degrades or reports the fault; none may drop it.
FAULT_HANDLERS = {
    "repro.bufferpool.manager.BufferPoolManager._write_back": (
        1, "a failed write-back batch goes to _retry_write_back",
    ),
    "repro.bufferpool.manager.BufferPoolManager._retry_write_back": (
        1, "the write-back retry loop: the next fault replaces the last",
    ),
    "repro.bufferpool.manager.BufferPoolManager._load": (
        2, "a checksum failure is repaired from the WAL, any other fault "
        "goes to _read_page_with_retry",
    ),
    "repro.bufferpool.manager.BufferPoolManager._read_page_with_retry": (
        1, "the read retry loop",
    ),
    "repro.bufferpool.recovery.recover": (
        1, "redo's retry loop; raises the permanent fault or "
        "RetriesExhaustedError",
    ),
    "repro.faults.retry.RetryPolicy.call": (1, "the generic retry loop"),
    "repro.core.reader.Reader.fetch": (
        1, "a faulted prefetch batch degrades to the missed page alone",
    ),
    "repro.core.reader.Reader._fetch_degraded": (
        1, "the missed page's read goes to the manager's retry",
    ),
    "repro.engine.serving.layer.ServingLayer._admit_units": (
        1, "a faulted unit is requeued, or failed if permanent or partly "
        "applied",
    ),
    "repro.engine.fanout.fan_out": (
        3, "a job that raised is retried, then left as a JobFailure that "
        "the grid reports as a failure row and the cluster raises as "
        "ClusterReplayError (serial, submit, result)",
    ),
    "repro.bench.chaos.run_cell": (
        1, "a run that died is a reported outcome; the durability audit "
        "still runs",
    ),
    "repro.bench.chaos.run_corruption_cell": (1, "the same"),
}


def _catches_faults(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = getattr(handler.type, "elts", [handler.type])
    for node in caught:
        name = getattr(node, "id", getattr(node, "attr", ""))
        cls = getattr(repro.errors, name, None) or getattr(builtins, name, None)
        if isinstance(cls, type) and (
            issubclass(cls, IOFaultError) or issubclass(IOFaultError, cls)
        ):
            return True
    return False


def test_faults_are_caught_only_where_they_are_handled():
    handlers = Counter(
        function
        for _, function, node, _ in nodes()
        if isinstance(node, ast.ExceptHandler) and _catches_faults(node)
    )
    assert handlers == sites(FAULT_HANDLERS)


# -- the layer DAG ---------------------------------------------------------

#: Everything a top-of-stack aggregator may reach.
_ALL_CORE = frozenset({
    "repro.errors", "repro.analysis", "repro.analyze", "repro.storage",
    "repro.policies", "repro.faults", "repro.workloads", "repro.bufferpool",
    "repro.prefetch", "repro.core", "repro.engine", "repro.cluster",
})

#: package -> the ``repro`` packages it may import.  Imports within a
#: package are always allowed; ``if TYPE_CHECKING:`` imports are erased at
#: run time and exempt, as are function-scope imports from the cycle check
#: (they are how a cycle is broken) but not from the layering.
LAYER_DEPS: dict[str, frozenset[str]] = {
    "repro.errors": frozenset(),
    # Pure math (Che's approximation, the ideal-speedup model).
    "repro.analysis": frozenset({"repro.errors"}),
    # The sanitizer sees the manager only under TYPE_CHECKING.
    "repro.analyze": frozenset({"repro.errors"}),
    "repro.storage": frozenset({"repro.errors"}),
    # Replacement policies see pages only through PageStateView.
    "repro.policies": frozenset({"repro.errors"}),
    "repro.faults": frozenset({"repro.errors", "repro.storage"}),
    "repro.bufferpool": frozenset({
        "repro.errors", "repro.analyze", "repro.faults", "repro.policies",
        "repro.storage",
    }),
    "repro.workloads": frozenset({
        "repro.errors", "repro.storage", "repro.bufferpool",
    }),
    "repro.prefetch": frozenset({"repro.errors", "repro.workloads"}),
    "repro.core": frozenset({
        "repro.errors", "repro.bufferpool", "repro.faults", "repro.policies",
        "repro.prefetch", "repro.storage",
    }),
    "repro.engine": frozenset({
        "repro.errors", "repro.storage", "repro.workloads", "repro.bufferpool",
        "repro.core", "repro.policies",
    }),
    "repro.cluster": frozenset({
        "repro.errors", "repro.storage", "repro.policies", "repro.bufferpool",
        "repro.core", "repro.engine", "repro.workloads", "repro.faults",
    }),
    "repro.verify": frozenset({
        "repro.errors", "repro.storage", "repro.policies", "repro.bufferpool",
        "repro.core", "repro.engine", "repro.workloads", "repro.faults",
    }),
    "repro.bench": _ALL_CORE,
    "repro.cli": _ALL_CORE | {"repro.bench", "repro.verify"},
    "repro.__main__": _ALL_CORE | {"repro.bench", "repro.cli", "repro.verify"},
    "repro": _ALL_CORE | {"repro.bench", "repro.verify"},
}


def _layer(module: str) -> str:
    """``repro.policies.lru`` -> ``repro.policies``; top-level modules are
    their own layer."""
    return ".".join(module.split(".")[:2])


def _imports(body, deferred=False):
    """``(imported name, line, deferred)`` of every import in ``body``
    outside ``if TYPE_CHECKING:``; relative names keep their dots."""
    for node in body:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith(
            "TYPE_CHECKING"
        ):
            yield from _imports(node.orelse, deferred)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno, deferred
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                yield f"{base}.{alias.name}", node.lineno, deferred
        else:
            scoped = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from _imports(ast.iter_child_nodes(node), deferred or scoped)


@cache
def import_edges() -> list[tuple[str, str, int, bool]]:
    """``(importer, imported module, line, deferred)`` of every ``repro``
    import, the target cut to its longest prefix that is a module."""
    modules = trees(SRC)
    edges = []
    for module, tree in modules.items():
        for name, line, deferred in _imports(tree.body):
            if name.split(".")[0] not in {"", "repro"}:
                continue
            while name not in modules and "." in name.strip("."):
                name = name.rsplit(".", 1)[0]
            edges.append((module, name, line, deferred))
    return edges


def find_cycle(graph) -> list[str]:
    """One cycle of ``graph`` as a path back to its start, or ``[]``."""
    done: set[str] = set()
    trail: list[str] = []

    def visit(node: str) -> list[str]:
        if node in trail:
            return trail[trail.index(node):] + [node]
        if node in done:
            return []
        trail.append(node)
        for successor in sorted(graph.get(node, ())):
            if cycle := visit(successor):
                return cycle
        trail.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        if cycle := visit(node):
            return cycle
    return []


def test_every_package_is_a_declared_layer():
    assert {_layer(module) for module in trees(SRC)} == LAYER_DEPS.keys()
    assert find_cycle(LAYER_DEPS) == []


def test_imports_follow_the_layer_dag():
    crossings = [
        f"{module}:{line} imports {target}"
        for module, target, line, _ in import_edges()
        if _layer(target) != _layer(module)
        and _layer(target) not in LAYER_DEPS.get(_layer(module), ())
    ]
    assert crossings == []


def test_no_module_scope_import_cycle():
    graph = defaultdict(set)
    for module, target, _, deferred in import_edges():
        if not deferred and target != module:
            graph[module].add(target)
    assert find_cycle(graph) == []


# -- the inlined loops' counters -------------------------------------------

#: The inlined replay loop batches commuting counters in locals and adds
#: them to ``stats`` / ``device_stats`` once, in the ``finally``: a request
#: that raises mid-stretch leaves the totals the per-request path would
#: have.  ``tests/engine/test_executor_fastpath.py``'s ``*_error_parity``
#: tests check those totals.
BATCHED_LOOPS = ("repro.engine.executor._replay_turbo",)


@pytest.mark.parametrize("qualified", BATCHED_LOOPS)
def test_batched_counters_are_flushed_only_in_the_finally(qualified):
    module, _, name = qualified.rpartition(".")
    (func,) = [
        node for node in trees(SRC)[module].body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    counters = {
        node.target.id
        for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    }
    flushes = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and getattr(node.target.value, "id", None) in {"stats", "device_stats"}
        and getattr(node.value, "id", None) in counters
    ]
    (guard,) = [node for node in func.body if isinstance(node, ast.Try)]
    in_finally = {node for stmt in guard.finalbody for node in ast.walk(stmt)}
    assert counters and {node.value.id for node in flushes} == counters
    assert [node.lineno for node in flushes if node not in in_finally] == []
