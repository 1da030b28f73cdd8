"""The repo-specific lint rules (R001-R014).

Each rule encodes a contract the simulator depends on but no generic tool
checks.  R001-R007, R013 and R014 are per-file AST rules; R008 is a
whole-program rule over the import graph (:mod:`repro.analyze.graph`),
R009-R011 are flow-sensitive rules built on the CFG/dataflow framework
(:mod:`repro.analyze.cfg`, :mod:`repro.analyze.dataflow`), and R012 is a
cross-file project rule over the parsed ASTs:

R001 *determinism*
    The simulation packages (``repro.core``, ``repro.policies``,
    ``repro.bufferpool``, ``repro.storage``, ``repro.workloads``,
    ``repro.engine``, ``repro.faults``) must be pure functions of their
    inputs: identical
    configs and seeds must replay identically, serially or across the
    parallel fan-out.  Module-level ``random.*`` calls, unseeded RNG
    constructions, wall-clock reads, and environment lookups all break
    that, silently.

R002 *encapsulation*
    Only ``repro.bufferpool`` assigns the descriptor state bits (``dirty``,
    ``pin_count``, ``usage``, ``cold``, ``prefetched``).  Policies observe
    page state through :class:`~repro.policies.base.PageStateView`; a policy
    that writes descriptor fields directly desynchronises the manager's
    O(1) mirror sets.

R003 *virtual-order purity*
    ``eviction_order()`` is the policy's side-effect-free virtual order
    (paper Section III); ACE's Writer and Evictor peek at it on every dirty
    miss.  Any mutation of ``self`` state inside it corrupts the policy as
    a side effect of *reading* it.  Escape hatch for deliberate exceptions:
    ``# lint: allow-mutation`` on the offending line.

R004 *picklability*
    :class:`~repro.bench.parallel.TraceSpec` and ``GridJob`` cross process
    boundaries; lambdas, closures, and function-local classes flowing into
    their construction die inside ``ProcessPoolExecutor`` with an opaque
    pickling error at fan-out time.  This rule moves that failure to lint
    time.

R005 *io-fault-handling*
    With :mod:`repro.faults` in the stack, device I/O can raise
    :class:`~repro.errors.IOFaultError`.  An ``except`` around a device
    read/write that swallows such faults silently converts an injected
    failure into lost work — the exact bug class the fault layer exists to
    surface.  Handlers catching fault(-compatible) exceptions around device
    I/O must re-raise or visibly route through the retry/degradation
    machinery.  Escape hatch: ``# lint: allow-io-swallow``.

R006 *serving-virtual-time*
    ``repro.engine.serving`` admission deadlines, requeue backoffs, and
    breaker cooldowns are virtual-clock quantities; a wall-clock deadline
    would make shed/expire decisions host-dependent and break replay.
    Stricter than R001's call denylist: the package must not import or
    touch the ``time``/``datetime`` modules at all (``time.sleep``
    included).  Escape hatch: ``# lint: allow-wall-clock``.

R007 *translation-encapsulation*
    The page→frame translation structures (``_slots``, ``_frame_of``) are
    owned by :mod:`repro.bufferpool.table`.  Code elsewhere that reaches
    into another object's translation internals (``manager._slots[page]``,
    ``table._frame_of[page]``) bakes in one backend's representation and
    silently diverges when the dict/array backend switches; go through
    ``table.lookup``/``table.pages`` or the manager's resident API.  The
    deliberate hot-path aliases (manager construction, the executor's
    inlined replay, crash bricking, the sanitizer's ground-truth peek)
    carry the escape hatch ``# lint: allow-translation``.

R008 *layering*
    The architecture is a declared DAG of package layers
    (:data:`repro.analyze.graph.LAYER_DEPS`): ``repro.policies`` and
    ``repro.bufferpool`` must never import the engine/bench/serving
    layers above them, ``repro.analyze`` stands alone on
    ``repro.errors``, and no module-scope import cycles may exist at
    module granularity.  ``TYPE_CHECKING`` imports are exempt.  Escape
    hatch: ``# lint: allow-layering``.

R009 *iteration-order determinism*
    Iterating a ``set``/``frozenset`` yields hash order — stable within
    one process, but dependent on insertion history, which is exactly
    the kind of order that silently diverges between "should be
    identical" runs.  Values derived from set iteration must not flow
    into ordered outputs (list appends, ``list()``/``tuple()``
    materialisation, ``yield``, ``str.join``) without an intervening
    ``sorted()``.  Escape hatch: ``# lint: allow-set-order``.

R010 *batched-counter exception safety*
    The executor fast paths accumulate commuting integer deltas in
    locals and flush them into stats/metrics objects once — the
    ``_replay_turbo`` contract is that a mid-trace exception
    flushes the same totals the per-request path would have recorded.
    Mechanically: a local accumulated with ``+=`` inside a loop and
    flushed into a stats/metrics attribute must reach that flush on
    *every* CFG path to the function exit, including the implicit
    may-raise edges — in practice, the flush belongs in a ``finally``.
    Escape hatch: ``# lint: allow-unflushed-counter``.

R011 *value-level wall-clock taint*
    Generalizes R001/R006 from call denylists to dataflow: any value
    tainted by ``time.*``/``datetime.*``/``os.environ`` must not reach
    simulation state, metrics objects, or control flow anywhere under
    ``repro``.  Reading the wall clock is not the violation — acting on
    it is.  Deliberate host inputs (shard replay timers, env-var knobs)
    carry ``# lint: allow-wall-clock`` (or R001's
    ``allow-nondeterminism``) on the *source* line, which kills the
    taint at the seed.

R012 *fault-dispatch exhaustiveness*
    :class:`~repro.faults.plan.FaultKind` members and the
    :class:`~repro.faults.device.FaultyDevice` dispatch that handles them
    live in different files, so adding a fault kind without teaching the
    injector's apply paths about it fails only at runtime — as an
    ``AssertionError`` mid-simulation, or worse, as a silently undrawn
    fault.  Every enum member must be referenced by name
    (``FaultKind.X``) inside a ``FaultyDevice`` class.  Escape hatch on
    the member's definition line: ``# lint: allow-unhandled-fault``.

R013 *worker-shared-state*
    Worker entry points — module-level functions handed to
    ``pool.submit(f, ...)``/``pool.map(f, ...)`` — run in forked or
    spawned processes: a mutation of module-global mutable state (a
    top-level ``list``/``dict``/``set`` binding) made there lands in the
    *worker's* copy of the module, silently diverges between worker
    counts, and never reaches the parent.  The cluster/grid results must
    be pure functions of the submitted job, so the entry point and every
    same-module function it (transitively) calls must not mutate or
    rebind such globals.  Deliberate per-process caches carry
    ``# lint: allow-shared-state`` on the mutating line.

R014 *replica-write-path*
    Replica stacks exist to mirror the durable WAL prefix: the *only*
    writer of a replica's pool/device/WAL is the shipping + apply
    machinery in :mod:`repro.cluster.replication` (and the recovery redo
    path it delegates to).  A direct ``access``/``write``/
    ``write_page``/``write_batch``/``mark_dirty`` call on a replica
    stack anywhere else forks the replica from the shipped prefix, and
    the divergence surfaces only after a failover — as a failed
    promotion audit far from the write.  Deliberate test probes carry
    ``# lint: allow-replica-write`` on the call line.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analyze.cfg import build_cfg
from repro.analyze.dataflow import TaintAnalysis, TaintSpec, assigned_names
from repro.analyze.graph import LAYER_DEPS, ProjectGraph, package_of
from repro.analyze.lint import LintRule, SourceModule, Violation

__all__ = [
    "DEFAULT_RULES",
    "DeterminismRule",
    "EncapsulationRule",
    "FaultDispatchRule",
    "IORetryRule",
    "PicklabilityRule",
    "ReplicaWritePathRule",
    "ServingVirtualTimeRule",
    "TranslationEncapsulationRule",
    "VirtualOrderPurityRule",
    "WorkerSharedStateRule",
]


def _attr_root(node: ast.AST) -> ast.Name | None:
    """The ``Name`` at the root of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _rooted_at_self(node: ast.AST) -> bool:
    root = _attr_root(node)
    return root is not None and root.id == "self"


class _ImportTable:
    """Resolve dotted call targets through ``import``/``from`` aliases."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> canonical dotted module ("np" -> "numpy").
        self.modules: dict[str, str] = {}
        #: local name -> canonical dotted object ("shuffle" -> "random.shuffle").
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Canonical dotted name of an attribute chain / bare name, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.modules:
            prefix = self.modules[base]
        elif base in self.names:
            prefix = self.names[base]
        else:
            return None
        return ".".join([prefix, *reversed(parts)]) if parts else prefix


class DeterminismRule(LintRule):
    """R001: no unseeded randomness, wall clock, or env reads in sim packages."""

    code = "R001"
    name = "determinism"
    description = (
        "simulation packages must not call module-level random functions, "
        "construct unseeded RNGs, read the wall clock, or read the "
        "environment; thread RNGs/seeds through config parameters"
    )
    suppression = "allow-nondeterminism"

    #: Packages whose behaviour must be a pure function of config + seed.
    #: ``tests``/``benchmarks`` are included so the suites that *assert*
    #: determinism cannot themselves smuggle in the wall clock (CI lints
    #: them with ``--select R001,R004,R009``).
    packages = (
        "repro.core",
        "repro.policies",
        "repro.bufferpool",
        "repro.storage",
        "repro.workloads",
        "repro.engine",
        "repro.faults",
        "repro.verify",
        "repro.cluster",
        "tests",
        "benchmarks",
    )

    _random_funcs = frozenset({
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    })
    _numpy_random_funcs = frozenset({
        "choice", "normal", "permutation", "rand", "randint", "randn",
        "random", "random_sample", "seed", "shuffle", "standard_normal",
        "uniform",
    })
    _wall_clock = frozenset({
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today", "uuid.uuid1", "uuid.uuid4",
    })
    #: RNG constructors that are fine *with* a seed argument, flagged bare.
    _seedable = frozenset({"random.Random", "numpy.random.default_rng"})
    _env_reads = frozenset({"os.getenv", "os.environb"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package(*self.packages):
            return
        imports = _ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = imports.resolve(node.func)
                if target is None:
                    continue
                message = self._call_message(target, node)
                if message and not self.allowed(module, node):
                    yield self.violation(module, node, message)
            elif isinstance(node, ast.Attribute):
                target = imports.resolve(node)
                if (
                    target == "os.environ"
                    and not self.allowed(module, node)
                ):
                    yield self.violation(
                        module, node,
                        "environment read (os.environ) makes simulation "
                        "behaviour host-dependent; take the value as a "
                        "config parameter",
                    )

    def _call_message(self, target: str, node: ast.Call) -> str | None:
        if target.startswith("random.") and target[7:] in self._random_funcs:
            return (
                f"module-level {target}() uses the shared unseeded RNG; "
                "thread a seeded random.Random through a seed/rng parameter"
            )
        if (
            target.startswith("numpy.random.")
            and target[13:] in self._numpy_random_funcs
        ):
            return (
                f"{target}() uses numpy's global RNG; use "
                "numpy.random.default_rng(seed) threaded via parameters"
            )
        if target in self._seedable and not node.args and not node.keywords:
            return f"{target}() without a seed is nondeterministic"
        if target == "random.SystemRandom":
            return "random.SystemRandom is nondeterministic by design"
        if target in self._wall_clock:
            return (
                f"{target}() reads the wall clock; simulation time comes "
                "from repro.storage.clock.VirtualClock"
            )
        if target in self._env_reads:
            return (
                f"{target}() makes simulation behaviour host-dependent; "
                "take the value as a config parameter"
            )
        return None


class EncapsulationRule(LintRule):
    """R002: descriptor state bits are assigned only inside repro.bufferpool."""

    code = "R002"
    name = "encapsulation"
    description = (
        "no module outside repro.bufferpool assigns BufferDescriptor state "
        "fields (dirty, pin_count, usage, cold, prefetched); policies go "
        "through PageStateView"
    )
    suppression = "allow-descriptor-write"

    _fields = frozenset({"dirty", "pin_count", "usage", "cold", "prefetched"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if module.in_package("repro.bufferpool"):
            return
        for node in ast.walk(module.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            else:
                continue
            for target in self._flatten(targets):
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in self._fields
                    and not self.allowed(module, node)
                ):
                    yield self.violation(
                        module, node,
                        f"assignment to .{target.attr} outside "
                        "repro.bufferpool; descriptor state bits are owned "
                        "by the buffer manager (read them via PageStateView)",
                    )

    @staticmethod
    def _flatten(targets: list[ast.expr]) -> Iterator[ast.expr]:
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                yield from EncapsulationRule._flatten(list(target.elts))
            else:
                yield target


class VirtualOrderPurityRule(LintRule):
    """R003: ``eviction_order`` bodies must not mutate policy state."""

    code = "R003"
    name = "virtual-order-purity"
    description = (
        "eviction_order() is the side-effect-free virtual order: no "
        "assignments to self state and no calls to mutating methods; "
        "escape hatch: `# lint: allow-mutation`"
    )
    suppression = "allow-mutation"

    #: Policy lifecycle methods that mutate state by contract.
    _mutating_self_methods = frozenset({
        "bind", "insert", "on_access", "remove", "select_victim",
    })
    #: Container mutators that, applied to a self-rooted chain, change state.
    _mutating_container_methods = frozenset({
        "add", "append", "appendleft", "clear", "difference_update",
        "discard", "extend", "insert", "intersection_update", "move_to_end",
        "pop", "popitem", "popleft", "remove", "reverse", "rotate",
        "setdefault", "sort", "symmetric_difference_update", "update",
    })
    #: heapq functions that mutate their first argument in place.
    _heap_mutators = frozenset({
        "heapq.heapify", "heapq.heappop", "heapq.heappush",
        "heapq.heappushpop", "heapq.heapreplace",
    })

    def check(self, module: SourceModule) -> Iterator[Violation]:
        imports = _ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "eviction_order"
            ):
                yield from self._check_body(module, node, imports)

    def _check_body(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: _ImportTable,
    ) -> Iterator[Violation]:
        for node in ast.walk(func):
            if node is func:
                continue
            message = self._mutation_message(node, imports)
            if message and not self.allowed(module, node):
                yield self.violation(
                    module, node, f"eviction_order() {message}"
                )

    def _mutation_message(
        self, node: ast.AST, imports: _ImportTable
    ) -> str | None:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if _rooted_at_self(target):
                    return "assigns to policy state (must be side-effect-free)"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if _rooted_at_self(target):
                    return "deletes policy state (must be side-effect-free)"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and func.attr in self._mutating_self_methods
                ):
                    return f"calls mutating method self.{func.attr}()"
                if (
                    func.attr in self._mutating_container_methods
                    and _rooted_at_self(func.value)
                ):
                    return (
                        f"calls .{func.attr}() on policy state "
                        "(copy to a local first)"
                    )
            target = imports.resolve(func)
            if (
                target in self._heap_mutators
                and node.args
                and _rooted_at_self(node.args[0])
            ):
                return (
                    f"passes policy state to {target}() which mutates it "
                    "in place (heapify a copy)"
                )
        return None


class PicklabilityRule(LintRule):
    """R004: no lambdas/closures/local classes into TraceSpec/GridJob."""

    code = "R004"
    name = "picklability"
    description = (
        "TraceSpec/GridJob cross process boundaries: lambdas, nested "
        "functions, and function-local classes passed into their "
        "construction fail to pickle at fan-out time"
    )
    suppression = "allow-unpicklable"

    _constructors = frozenset({"TraceSpec", "GridJob"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        yield from self._walk_scope(
            module, module.tree, local_defs=frozenset(), in_function=False
        )

    def _walk_scope(
        self,
        module: SourceModule,
        scope: ast.AST,
        local_defs: frozenset[str],
        in_function: bool,
    ) -> Iterator[Violation]:
        """Visit ``scope``, tracking names bound to unpicklable callables.

        ``local_defs`` carries the lambdas, function-local defs, and local
        classes visible at this point.  Module-level ``def``/``class``
        statements pickle by reference and never enter the set; a name
        assigned a lambda is tracked at any level (lambdas never pickle).
        """
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    local_defs = local_defs | {node.name}
                yield from self._walk_scope(
                    module, node, local_defs, in_function=True
                )
                continue
            if isinstance(node, ast.ClassDef):
                if in_function:
                    local_defs = local_defs | {node.name}
                yield from self._walk_scope(
                    module, node, local_defs, in_function
                )
                continue
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_defs = local_defs | {target.id}
            yield from self._check_calls(module, node, local_defs)
            yield from self._walk_scope(module, node, local_defs, in_function)

    def _check_calls(
        self,
        module: SourceModule,
        node: ast.AST,
        local_defs: frozenset[str],
    ) -> Iterator[Violation]:
        if not isinstance(node, ast.Call):
            return
        name = self._constructor_name(node.func)
        if name is None:
            return
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for inner in ast.walk(value):
                if isinstance(inner, ast.Lambda):
                    if not self.allowed(module, inner):
                        yield self.violation(
                            module, inner,
                            f"lambda flows into {name}(); workers cannot "
                            "pickle it — use a module-level function",
                        )
                elif (
                    isinstance(inner, ast.Name)
                    and isinstance(inner.ctx, ast.Load)
                    and inner.id in local_defs
                ):
                    if not self.allowed(module, inner):
                        yield self.violation(
                            module, inner,
                            f"function-local callable {inner.id!r} flows "
                            f"into {name}(); workers cannot pickle it — "
                            "move it to module level",
                        )

    def _constructor_name(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id in self._constructors:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in self._constructors:
            return func.attr
        return None


class IORetryRule(LintRule):
    """R005: fault-catching handlers around device I/O must not swallow."""

    code = "R005"
    name = "io-fault-handling"
    description = (
        "an except clause that catches I/O-fault exceptions around device "
        "read/write calls must re-raise or route through the "
        "retry/degradation machinery; silently swallowing an injected "
        "fault loses work"
    )
    suppression = "allow-io-swallow"

    #: Device I/O entry points (SimulatedSSD / FaultyDevice surface).
    _io_methods = frozenset({
        "read_page", "read_batch", "write_page", "write_batch",
    })
    #: Exception names that catch (or subsume) IOFaultError.
    _fault_catchers = frozenset({
        "IOFaultError", "TornWriteError", "RetriesExhaustedError",
        "ReproError", "Exception", "BaseException", "OSError",
    })
    #: Identifier substrings that mark a handler as routing the fault into
    #: the retry/degradation machinery rather than dropping it.
    _handled_markers = ("retry", "retries", "degrad")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro"):
            return
        # A try/except *inside* the retry machinery is the machinery: the
        # loop around it is what retries, so its handlers legitimately
        # capture the fault and continue.  Exempt functions whose names
        # carry a handled-marker (e.g. _retry_write_back).
        exempt: set[ast.Try] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lowered = node.name.lower()
                if any(marker in lowered for marker in self._handled_markers):
                    for inner in ast.walk(node):
                        if isinstance(inner, ast.Try):
                            exempt.add(inner)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try) or node in exempt:
                continue
            if not self._body_does_device_io(node.body):
                continue
            for handler in node.handlers:
                if not self._catches_faults(handler):
                    continue
                if self._handler_handles(handler):
                    continue
                if self.allowed(module, handler):
                    continue
                caught = self._caught_names(handler) or ["(bare except)"]
                yield self.violation(
                    module, handler,
                    f"except {', '.join(caught)} around device I/O neither "
                    "re-raises nor routes through retry/degradation; an "
                    "injected fault would be silently swallowed",
                )

    def _body_does_device_io(self, body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._io_methods
                ):
                    return True
        return False

    def _caught_names(self, handler: ast.ExceptHandler) -> list[str]:
        kind = handler.type
        if kind is None:
            return []
        exprs = list(kind.elts) if isinstance(kind, ast.Tuple) else [kind]
        names = []
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.append(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.append(expr.attr)
        return names

    def _catches_faults(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # a bare except catches IOFaultError too
        return any(
            name in self._fault_catchers
            for name in self._caught_names(handler)
        )

    def _handler_handles(self, handler: ast.ExceptHandler) -> bool:
        """Re-raises, or mentions a retry/degradation identifier."""
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            identifier: str | None = None
            if isinstance(node, ast.Name):
                identifier = node.id
            elif isinstance(node, ast.Attribute):
                identifier = node.attr
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                identifier = node.name
            if identifier is not None:
                lowered = identifier.lower()
                if any(marker in lowered for marker in self._handled_markers):
                    return True
        return False


class ServingVirtualTimeRule(LintRule):
    """R006: ``repro.engine.serving`` must be entirely wall-clock-free."""

    code = "R006"
    name = "serving-virtual-time"
    description = (
        "repro.engine.serving deadlines, backoffs, and breaker cooldowns "
        "are virtual-clock microseconds; the package must not import or "
        "use the time/datetime modules at all (time.sleep included) — "
        "escape hatch: `# lint: allow-wall-clock`"
    )
    suppression = "allow-wall-clock"

    packages = ("repro.engine.serving",)
    _modules = frozenset({"time", "datetime"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package(*self.packages):
            return
        imports = _ImportTable(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._modules and not self.allowed(module, node):
                        yield self.violation(
                            module, node,
                            f"import {alias.name} in repro.engine.serving; "
                            "deadlines and cooldowns are virtual-clock "
                            "microseconds, never wall-clock values",
                        )
            elif isinstance(node, ast.ImportFrom):
                if (
                    node.module
                    and not node.level
                    and node.module.split(".")[0] in self._modules
                    and not self.allowed(module, node)
                ):
                    yield self.violation(
                        module, node,
                        f"from {node.module} import in repro.engine.serving; "
                        "deadlines and cooldowns are virtual-clock "
                        "microseconds, never wall-clock values",
                    )
            elif isinstance(node, ast.Call):
                target = imports.resolve(node.func)
                if (
                    target is not None
                    and target.split(".")[0] in self._modules
                    and not self.allowed(module, node)
                ):
                    yield self.violation(
                        module, node,
                        f"{target}() call in repro.engine.serving; charge "
                        "waits to the virtual clock instead of sleeping or "
                        "reading host time",
                    )


class TranslationEncapsulationRule(LintRule):
    """R007: page→frame translation internals stay inside the table module."""

    code = "R007"
    name = "translation-encapsulation"
    description = (
        "the page→frame translation structures (_slots, _frame_of) belong "
        "to repro.bufferpool.table; reaching into another object's "
        "translation internals bakes in one backend's representation — go "
        "through table.lookup()/pages() or the manager's resident API; "
        "escape hatch: `# lint: allow-translation`"
    )
    suppression = "allow-translation"

    #: The home module, exempt by definition.
    home = "repro.bufferpool.table"
    _fields = frozenset({"_slots", "_frame_of"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro") or module.module == self.home:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self._fields
                # `self._slots` is an object's own state (the table's
                # vector, the manager's declared alias); only reaching
                # into ANOTHER object's translation internals is flagged.
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
                and not self.allowed(module, node)
            ):
                yield self.violation(
                    module, node,
                    f"direct access to translation internal .{node.attr} "
                    "outside repro.bufferpool.table; use table.lookup()/"
                    "pages() or the manager's resident API (deliberate "
                    "hot-path aliases: `# lint: allow-translation`)",
                )


def _functions(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class LayeringRule(LintRule):
    """R008: whole-program import layering and cycle freedom."""

    code = "R008"
    name = "layering"
    description = (
        "intra-repro imports must follow the declared layer DAG "
        "(repro.analyze.graph.LAYER_DEPS) and form no module-scope import "
        "cycles; TYPE_CHECKING imports are exempt — escape hatch: "
        "`# lint: allow-layering`"
    )
    suppression = "allow-layering"
    #: Marks the rule as whole-program: the driver calls check_graph once
    #: with the assembled ProjectGraph instead of check() per file.
    scope = "graph"

    def check(self, module: SourceModule) -> Iterator[Violation]:
        return iter(())

    def _edge_suppressed(self, tags: frozenset[str]) -> bool:
        return bool(tags & {f"allow-{self.code}", self.suppression})

    @staticmethod
    def _target_package(target: str) -> str:
        """The layer key of an import target.

        Per-alias edges overshoot by one component on symbol imports
        (``from repro import run_lint`` targets ``repro.run_lint``);
        when the direct key is undeclared, fall back to the parent.
        """
        pkg = package_of(target)
        if pkg in LAYER_DEPS or "." not in target:
            return pkg
        parent = package_of(target.rsplit(".", 1)[0])
        return parent if parent in LAYER_DEPS else pkg

    def check_graph(self, graph: ProjectGraph) -> Iterator[Violation]:
        for edge in graph.edges:
            if edge.type_checking or self._edge_suppressed(edge.tags):
                continue
            src_pkg = package_of(edge.src_module)
            if src_pkg not in LAYER_DEPS:
                continue  # not a governed package (scripts, test modules)
            target_pkg = self._target_package(edge.target)
            if target_pkg == src_pkg:
                continue
            if target_pkg not in LAYER_DEPS:
                yield Violation(
                    path=edge.src_path, line=edge.lineno, col=edge.col,
                    rule=self.code,
                    message=(
                        f"{src_pkg} imports {edge.target}, whose package "
                        f"{target_pkg} is not in the declared layer DAG; "
                        "add it to repro.analyze.graph.LAYER_DEPS with its "
                        "allowed dependencies"
                    ),
                )
            elif target_pkg not in LAYER_DEPS[src_pkg]:
                yield Violation(
                    path=edge.src_path, line=edge.lineno, col=edge.col,
                    rule=self.code,
                    message=(
                        f"{src_pkg} must not import {target_pkg} "
                        f"(layer DAG allows only: "
                        f"{', '.join(sorted(LAYER_DEPS[src_pkg])) or 'nothing'})"
                        + ("; deferred imports still count — move the "
                           "dependency down a layer or invert it"
                           if edge.deferred else "")
                    ),
                )
        for cycle in graph.cycles():
            edge = graph.edge_for(cycle[0], cycle[1 % len(cycle)])
            if edge is None or self._edge_suppressed(edge.tags):
                continue
            chain = " -> ".join(cycle + [cycle[0]])
            yield Violation(
                path=edge.src_path, line=edge.lineno, col=edge.col,
                rule=self.code,
                message=(
                    f"module-scope import cycle: {chain}; defer one import "
                    "into the function that needs it or move the shared "
                    "piece down a layer"
                ),
            )


class IterationOrderRule(LintRule):
    """R009: set-iteration order must not leak into ordered outputs."""

    code = "R009"
    name = "iteration-order"
    description = (
        "values derived from iterating a set/frozenset must not flow into "
        "ordered outputs (list appends, list()/tuple(), yield, str.join) "
        "without an intervening sorted() — escape hatch: "
        "`# lint: allow-set-order`"
    )
    suppression = "allow-set-order"

    packages = ("repro", "tests", "benchmarks")

    #: Methods that keep set-ness when called on a set.
    _set_methods = frozenset({
        "union", "intersection", "difference", "symmetric_difference", "copy",
    })
    #: Binary operators that keep set-ness.
    _set_ops = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    #: Consumers for which iteration order genuinely does not matter.
    _order_free_consumers = frozenset({
        "sorted", "set", "frozenset", "sum", "len", "min", "max", "any",
        "all", "Counter", "dict",
    })
    #: Ordered materialisations of an iterable.
    _ordered_builders = frozenset({"list", "tuple"})

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package(*self.packages):
            return
        for func in _functions(module.tree):
            yield from self._check_function(module, func)

    # -- set-typed inference (flow-insensitive, per function) -------------

    def _set_locals(self, func: ast.AST) -> set[str]:
        """Names assigned a set-typed expression anywhere in the function."""
        sets: set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(func):
                if not isinstance(node, ast.Assign):
                    continue
                names = [
                    name for target in node.targets
                    for name in assigned_names(target)
                ]
                if not names:
                    continue
                if self._is_set_expr(node.value, sets):
                    for name in names:
                        if name not in sets:
                            sets.add(name)
                            changed = True
        return sets

    def _is_set_expr(self, expr: ast.expr, sets: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in sets
        if isinstance(expr, ast.Attribute):
            return expr.attr.endswith("_set") or expr.attr == "_sets"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._set_methods
            ):
                return self._is_set_expr(func.value, sets)
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, self._set_ops):
            return (
                self._is_set_expr(expr.left, sets)
                or self._is_set_expr(expr.right, sets)
            )
        if isinstance(expr, ast.IfExp):
            return (
                self._is_set_expr(expr.body, sets)
                or self._is_set_expr(expr.orelse, sets)
            )
        return False

    # -- sinks ------------------------------------------------------------

    def _check_function(
        self, module: SourceModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        sets = self._set_locals(func)
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        sorted_later = self._sorted_later_names(func)

        # Ordered loop targets: `for x in some_set:` taints x for the body.
        tainted: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, sets):
                    tainted.update(assigned_names(node.target))

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                yield from self._check_call(
                    module, node, sets, tainted, parents, sorted_later
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                yield from self._check_comprehension(
                    module, node, sets, parents, sorted_later
                )
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is None:
                    continue
                hazard = None
                if isinstance(node, ast.YieldFrom) and self._is_set_expr(
                    value, sets
                ):
                    hazard = "yield from a set yields hash order"
                elif self._mentions(value, tainted):
                    hazard = (
                        "yield of a value bound by set iteration emits "
                        "hash order"
                    )
                if hazard and not self.allowed(module, node):
                    yield self.violation(
                        module, node, f"{hazard}; wrap the set in sorted()"
                    )

    def _sorted_later_names(self, func: ast.AST) -> set[str]:
        """Receivers that are later ``.sort()``-ed or passed to sorted()."""
        names: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"
                and isinstance(node.func.value, ast.Name)
            ):
                names.add(node.func.value.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        names.add(arg.id)
        return names

    def _assigned_name_of(self, node: ast.AST, parents: dict) -> str | None:
        parent = parents.get(node)
        if isinstance(parent, ast.Assign):
            targets = [
                name for target in parent.targets
                for name in assigned_names(target)
            ]
            if len(targets) == 1:
                return targets[0]
        return None

    def _consumed_order_free(self, node: ast.AST, parents: dict) -> bool:
        parent = parents.get(node)
        if isinstance(parent, ast.Call):
            func = parent.func
            if (
                isinstance(func, ast.Name)
                and func.id in self._order_free_consumers
                and node in parent.args
            ):
                return True
        if isinstance(parent, (ast.Compare,)):
            # Membership / equality against a set is order-free.
            return True
        return False

    @staticmethod
    def _mentions(expr: ast.expr, names: set[str]) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id in names
            for node in ast.walk(expr)
        )

    def _check_call(
        self,
        module: SourceModule,
        node: ast.Call,
        sets: set[str],
        tainted: set[str],
        parents: dict,
        sorted_later: set[str],
    ) -> Iterator[Violation]:
        func = node.func
        # list(S) / tuple(S) over a set materialises hash order.
        if (
            isinstance(func, ast.Name)
            and func.id in self._ordered_builders
            and node.args
            and self._is_set_expr(node.args[0], sets)
        ):
            target = self._assigned_name_of(node, parents)
            if (
                not self._consumed_order_free(node, parents)
                and (target is None or target not in sorted_later)
                and not self.allowed(module, node)
            ):
                yield self.violation(
                    module, node,
                    f"{func.id}() over a set materialises hash order; "
                    "use sorted() (or sort the result before it escapes)",
                )
        # out.append(x) / out.extend(...) with a set-iteration value.
        if (
            isinstance(func, ast.Attribute)
            and func.attr in {"append", "appendleft", "extend", "insert"}
            and node.args
        ):
            receiver = (
                func.value.id if isinstance(func.value, ast.Name) else None
            )
            for arg in node.args:
                if self._mentions(arg, tainted) or (
                    func.attr == "extend" and self._is_set_expr(arg, sets)
                ):
                    if receiver is not None and receiver in sorted_later:
                        continue
                    if not self.allowed(module, node):
                        yield self.violation(
                            module, node,
                            f".{func.attr}() of a value bound by set "
                            "iteration builds an order-dependent sequence; "
                            "iterate sorted(<set>) instead",
                        )
                    break
        # "sep".join(S) over a set.
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self._is_set_expr(node.args[0], sets)
            and not self.allowed(module, node)
        ):
            yield self.violation(
                module, node,
                "str.join over a set concatenates in hash order; "
                "join sorted(<set>) instead",
            )

    def _check_comprehension(
        self,
        module: SourceModule,
        node: ast.ListComp | ast.GeneratorExp,
        sets: set[str],
        parents: dict,
        sorted_later: set[str],
    ) -> Iterator[Violation]:
        if not any(
            self._is_set_expr(gen.iter, sets) for gen in node.generators
        ):
            return
        if self._consumed_order_free(node, parents):
            return
        if isinstance(node, ast.GeneratorExp):
            # A generator over a set is only a hazard when its consumer
            # is ordered; unknown consumers are left alone.
            parent = parents.get(node)
            ordered = (
                isinstance(parent, ast.Call)
                and (
                    (isinstance(parent.func, ast.Name)
                     and parent.func.id in self._ordered_builders)
                    or (isinstance(parent.func, ast.Attribute)
                        and parent.func.attr == "join")
                )
            )
            if not ordered:
                return
        target = self._assigned_name_of(node, parents)
        if target is not None and target in sorted_later:
            return
        if not self.allowed(module, node):
            yield self.violation(
                module, node,
                "comprehension over a set produces an order-dependent "
                "sequence; iterate sorted(<set>) instead",
            )


class BatchedCounterFlushRule(LintRule):
    """R010: loop-batched counters must flush on every path to exit."""

    code = "R010"
    name = "batched-counter-flush"
    description = (
        "a local accumulated with += inside a loop and flushed into a "
        "stats/metrics attribute must reach the flush on every CFG path "
        "to the function exit (including may-raise edges): put the flush "
        "in a finally — escape hatch: `# lint: allow-unflushed-counter`"
    )
    suppression = "allow-unflushed-counter"

    _sink_markers = ("stats", "metrics")

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro"):
            return
        for func in _functions(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self, module: SourceModule, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        accumulations = self._loop_accumulations(func)
        if not accumulations:
            return
        flushes = self._flushes(func, set(accumulations))
        if not flushes:
            return
        cfg = build_cfg(func, with_exceptions=True)
        reachable = cfg.reachable()
        for counter, stmts in accumulations.items():
            counter_flushes = flushes.get(counter)
            if not counter_flushes:
                continue
            flush_blocks = {
                block.index
                for stmt in counter_flushes
                if (block := cfg.block_of(stmt)) is not None
            }
            if not flush_blocks:
                continue
            for stmt in stmts:
                block = cfg.block_of(stmt)
                if block is None or block.index not in reachable:
                    continue
                if cfg.always_passes_through(block.index, flush_blocks):
                    continue
                if self.allowed(module, stmt):
                    continue
                flush_line = min(s.lineno for s in counter_flushes)
                yield self.violation(
                    module, stmt,
                    f"counter {counter!r} batched here can reach the "
                    f"function exit without the flush at line {flush_line} "
                    "(an exception or early exit would lose the delta); "
                    "flush it in a finally",
                )

    @staticmethod
    def _loop_accumulations(
        func: ast.AST,
    ) -> dict[str, list[ast.AugAssign]]:
        """Locals accumulated with ``+=`` inside a loop, per name."""
        out: dict[str, list[ast.AugAssign]] = {}
        for node in ast.walk(func):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                continue
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.AugAssign)
                    and isinstance(inner.op, ast.Add)
                    and isinstance(inner.target, ast.Name)
                ):
                    out.setdefault(inner.target.id, []).append(inner)
        return out

    def _flushes(
        self, func: ast.AST, counters: set[str]
    ) -> dict[str, list[ast.AugAssign]]:
        """Statements flushing a counter into a stats/metrics attribute."""
        out: dict[str, list[ast.AugAssign]] = {}
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
            ):
                continue
            if not self._is_sink_chain(node.target):
                continue
            for name_node in ast.walk(node.value):
                if (
                    isinstance(name_node, ast.Name)
                    and name_node.id in counters
                ):
                    out.setdefault(name_node.id, []).append(node)
        return out

    def _is_sink_chain(self, target: ast.Attribute) -> bool:
        """Whether the attribute chain names a stats/metrics object."""
        node: ast.expr = target
        parts: list[str] = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                parts.append(node.attr.lower())
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id.lower())
        return any(
            marker in part for part in parts for marker in self._sink_markers
        )


class WallClockTaintRule(LintRule):
    """R011: wall-clock/env-tainted values must not reach state or flow."""

    code = "R011"
    name = "wall-clock-taint"
    description = (
        "any value tainted by time.*/datetime.*/os.environ must not reach "
        "simulation state, metrics objects, or control flow under repro; "
        "deliberate host inputs hatch the *source* line with "
        "`# lint: allow-wall-clock` (or `allow-nondeterminism`)"
    )
    suppression = "allow-wall-clock"

    _env_calls = frozenset({"os.getenv", "os.environb"})

    def allowed(self, module: SourceModule, node: ast.AST) -> bool:
        return module.suppressed(
            getattr(node, "lineno", 0),
            f"allow-{self.code}", self.suppression, "allow-nondeterminism",
        )

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro"):
            return
        imports = _ImportTable(module.tree)
        for func in _functions(module.tree):
            yield from self._check_function(module, func, imports)

    def _source_reason(
        self, module: SourceModule, imports: _ImportTable, expr: ast.expr
    ) -> str | None:
        if self.allowed(module, expr):
            return None
        if isinstance(expr, ast.Call):
            target = imports.resolve(expr.func)
            if target is not None and (
                target.split(".")[0] in {"time", "datetime"}
                or target in self._env_calls
            ):
                return f"{target}()"
        elif isinstance(expr, ast.Attribute):
            if imports.resolve(expr) == "os.environ":
                return "os.environ"
        return None

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        imports: _ImportTable,
    ) -> Iterator[Violation]:
        spec = TaintSpec(
            source=lambda expr: self._source_reason(module, imports, expr),
            label="wall-clock",
        )
        cfg = build_cfg(func)
        analysis = TaintAnalysis(cfg, spec)
        for stmt, state in analysis.walk_statements():
            yield from self._check_sinks(module, analysis, stmt, state)

    def _check_sinks(
        self,
        module: SourceModule,
        analysis: TaintAnalysis,
        stmt: ast.stmt,
        state: dict,
    ) -> Iterator[Violation]:
        if isinstance(stmt, (ast.If, ast.While)):
            origin = analysis.taint_of(stmt.test, state)
            if origin is not None and not self.allowed(module, stmt):
                yield self.violation(
                    module, stmt,
                    f"control flow depends on a value tainted by "
                    f"{origin[0]} (line {origin[1]}); decide from config "
                    "or the virtual clock instead",
                )
        elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                list(stmt.targets)
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            if value is None:
                return
            origin = analysis.taint_of(value, state)
            if origin is None:
                return
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    if not self.allowed(module, stmt):
                        yield self.violation(
                            module, stmt,
                            f"value tainted by {origin[0]} (line "
                            f"{origin[1]}) is stored into object state; "
                            "simulation state and metrics must be pure "
                            "functions of config + seed + virtual time",
                        )
                    break
        elif isinstance(stmt, ast.Assert):
            origin = analysis.taint_of(stmt.test, state)
            if origin is not None and not self.allowed(module, stmt):
                yield self.violation(
                    module, stmt,
                    f"assertion depends on a value tainted by {origin[0]} "
                    f"(line {origin[1]})",
                )


class FaultDispatchRule(LintRule):
    """R012: every ``FaultKind`` member is handled by ``FaultyDevice``."""

    code = "R012"
    name = "fault-dispatch"
    description = (
        "every FaultKind member must be referenced (FaultKind.X) inside a "
        "FaultyDevice class so the injector's dispatch stays exhaustive"
    )
    suppression = "allow-unhandled-fault"
    scope = "project"

    #: The enum class name whose members are the contract, and the class
    #: name whose body must mention each of them.
    enum_class = "FaultKind"
    dispatch_class = "FaultyDevice"

    def check_project(self, modules) -> Iterator[Violation]:
        # module name -> [(member name, defining node, SourceModule)]
        enums: dict[str, list[tuple[str, ast.stmt, SourceModule]]] = {}
        # module name -> set of FaultKind.X names referenced in dispatch
        handled: dict[str, set[str]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                if node.name == self.enum_class:
                    members = enums.setdefault(module.module, [])
                    members.extend(
                        (name, stmt, module)
                        for name, stmt in self._members(node)
                    )
                elif node.name == self.dispatch_class:
                    refs = handled.setdefault(module.module, set())
                    refs.update(self._references(node))
        if not handled:
            # Nothing dispatches fault kinds in the linted set (e.g. a
            # fixture tree containing only the enum): no contract to check.
            return
        for enum_module, members in enums.items():
            dispatch_module = self._pair(enum_module, handled)
            refs = handled[dispatch_module]
            for name, stmt, module in members:
                if name in refs or self.allowed(module, stmt):
                    continue
                yield self.violation(
                    module, stmt,
                    f"FaultKind.{name} is never handled: add an explicit "
                    f"branch referencing it inside {dispatch_module}'s "
                    f"{self.dispatch_class} (or mark this line "
                    f"'# lint: {self.suppression}')",
                )

    def _members(
        self, node: ast.ClassDef
    ) -> Iterator[tuple[str, ast.stmt]]:
        """``NAME = value`` members of the enum class body."""
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith(
                    "_"
                ):
                    yield target.id, stmt

    def _references(self, node: ast.ClassDef) -> set[str]:
        """Every ``FaultKind.X`` attribute access inside the class body."""
        refs: set[str] = set()
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id == self.enum_class
            ):
                refs.add(child.attr)
        return refs

    @staticmethod
    def _pair(enum_module: str, handled: dict[str, set[str]]) -> str:
        """The dispatch module an enum is checked against.

        Same module wins outright; otherwise the dispatch module sharing
        the longest dotted prefix with the enum's module (ties broken
        lexicographically for determinism).  A fixture tree defining both
        classes in one file therefore never pairs against the real
        injector, and vice versa.
        """
        if enum_module in handled:
            return enum_module

        def shared(candidate: str) -> int:
            a, b = enum_module.split("."), candidate.split(".")
            n = 0
            for left, right in zip(a, b):
                if left != right:
                    break
                n += 1
            return n

        return max(sorted(handled), key=shared)


class WorkerSharedStateRule(LintRule):
    """R013: worker entry points must not mutate module-global mutables."""

    code = "R013"
    name = "worker-shared-state"
    description = (
        "functions submitted to worker pools (pool.submit/pool.map), and "
        "every same-module function they transitively call, must not "
        "mutate or rebind module-global mutable bindings — the mutation "
        "lands in the worker process's copy and diverges across worker "
        "counts; escape hatch: `# lint: allow-shared-state`"
    )
    suppression = "allow-shared-state"

    #: Pool fan-out methods whose first argument is a worker entry point.
    _dispatch_methods = frozenset({"submit", "map"})
    #: In-place mutators on lists/dicts/sets/deques and friends.
    _mutating_methods = frozenset({
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "update",
    })
    #: Constructor calls that bind a mutable container at module scope.
    _mutable_constructors = frozenset({
        "Counter", "OrderedDict", "defaultdict", "deque", "dict", "list",
        "set",
    })

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro"):
            return
        tree = module.tree
        functions = {
            node.name: node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        entries = self._worker_entries(tree, functions)
        if not entries:
            return
        mutables = self._module_mutables(tree)
        for name in sorted(self._reachable(entries, functions)):
            yield from self._check_function(
                module, functions[name], mutables, entries
            )

    # -- discovery --------------------------------------------------------

    def _module_mutables(self, tree: ast.Module) -> frozenset[str]:
        """Top-level names bound to a mutable container expression."""
        names: set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if not self._is_mutable_expr(value):
                continue
            for target in targets:
                elements = (
                    list(target.elts)
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                names.update(
                    element.id
                    for element in elements
                    if isinstance(element, ast.Name)
                )
        return frozenset(names)

    def _is_mutable_expr(self, expr: ast.expr) -> bool:
        if isinstance(
            expr,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            return name in self._mutable_constructors
        return False

    def _worker_entries(
        self,
        tree: ast.Module,
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> frozenset[str]:
        """Module-level functions handed to ``.submit()``/``.map()``."""
        entries: set[str] = set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._dispatch_methods
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in functions
            ):
                entries.add(node.args[0].id)
        return frozenset(entries)

    def _reachable(
        self,
        entries: frozenset[str],
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> set[str]:
        """Entry points plus same-module functions they transitively call."""
        reached = set(entries)
        frontier = list(entries)
        while frontier:
            current = functions[frontier.pop()]
            for node in ast.walk(current):
                if not isinstance(node, ast.Call):
                    continue
                callee: str | None = None
                if isinstance(node.func, ast.Name):
                    callee = node.func.id
                if callee in functions and callee not in reached:
                    reached.add(callee)
                    frontier.append(callee)
        return reached

    # -- mutation scan ----------------------------------------------------

    def _check_function(
        self,
        module: SourceModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        mutables: frozenset[str],
        entries: frozenset[str],
    ) -> Iterator[Violation]:
        shadowed = self._shadowed_names(func)
        declared_global = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        live = (mutables - shadowed) | (mutables & declared_global)
        if not live and not declared_global:
            return
        where = (
            "worker entry point"
            if func.name in entries
            else "function reachable from a worker entry point"
        )
        for node in ast.walk(func):
            message = self._mutation_message(
                node, live, declared_global, where
            )
            if message and not self.allowed(module, node):
                yield self.violation(module, node, message)

    @staticmethod
    def _shadowed_names(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        """Parameters and plain-name assignments that make a name local."""
        args = func.args
        shadowed = {
            arg.arg
            for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            )
        }
        declared_global = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    shadowed.update(
                        name for name in assigned_names(target)
                        if name not in declared_global
                    )
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                shadowed.update(assigned_names(node.target))
        return shadowed

    def _mutation_message(
        self,
        node: ast.AST,
        live: frozenset[str],
        declared_global: set[str],
        where: str,
    ) -> str | None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                list(node.targets)
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                root = _attr_root(target)
                if root is None:
                    continue
                if (
                    isinstance(target, (ast.Subscript, ast.Attribute))
                    and root.id in live
                ):
                    return (
                        f"{where} mutates module global {root.id!r}; the "
                        "write lands only in this worker process — return "
                        "the value instead (deliberate per-process caches: "
                        "`# lint: allow-shared-state`)"
                    )
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    return (
                        f"{where} rebinds module global {target.id!r} via "
                        "`global`; worker-process state never reaches the "
                        "parent — return the value instead"
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = _attr_root(target)
                if (
                    root is not None
                    and isinstance(target, (ast.Subscript, ast.Attribute))
                    and root.id in live
                ):
                    return (
                        f"{where} deletes from module global {root.id!r}; "
                        "the change lands only in this worker process"
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._mutating_methods
            ):
                root = _attr_root(func.value)
                if root is not None and root.id in live:
                    return (
                        f"{where} calls .{func.attr}() on module global "
                        f"{root.id!r}; the mutation lands only in this "
                        "worker process — return the value instead"
                    )
        return None


class ReplicaWritePathRule(LintRule):
    """R014: only the replication module writes to replica stacks."""

    code = "R014"
    name = "replica-write-path"
    description = (
        "replica pools/devices/WALs mirror the shipped durable prefix; "
        "mutating one directly (access/write/write_page/write_batch/"
        "mark_dirty on a replica-named receiver) outside "
        "repro.cluster.replication forks it from the primary and breaks "
        "the promotion audit — ship WAL records through the replica "
        "group instead; escape hatch: `# lint: allow-replica-write`"
    )
    suppression = "allow-replica-write"

    #: The home module: the shipping/apply/promotion machinery itself.
    home = "repro.cluster.replication"
    #: State-mutating entry points on a manager/device/WAL stack.
    _mutators = frozenset({
        "access", "mark_dirty", "write", "write_batch", "write_page",
    })

    def check(self, module: SourceModule) -> Iterator[Violation]:
        if not module.in_package("repro") or module.module == self.home:
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._mutators
                and self._replica_receiver(node.func.value)
                and not self.allowed(module, node)
            ):
                yield self.violation(
                    module, node,
                    f"direct .{node.func.attr}() on a replica stack outside "
                    "repro.cluster.replication; replicas follow the shipped "
                    "WAL prefix — route the write through the primary's "
                    "replica group (deliberate test probes: "
                    "`# lint: allow-replica-write`)",
                )

    def _replica_receiver(self, node: ast.expr) -> bool:
        """True when the receiver's name chain names a replica.

        Matches any segment of the dotted chain — ``replica.manager``,
        ``self.replicas[1].device``, ``group.replica_wal`` — by the
        substring ``replica`` (case-insensitive), the naming convention
        :mod:`repro.cluster.replication` establishes for replica stacks.
        """
        while True:
            if isinstance(node, ast.Attribute):
                if "replica" in node.attr.lower():
                    return True
                node = node.value
            elif isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call):
                node = node.func
            elif isinstance(node, ast.Name):
                return "replica" in node.id.lower()
            else:
                return False


#: The rule set ``python -m repro lint`` runs.
DEFAULT_RULES: tuple[LintRule, ...] = (
    DeterminismRule(),
    EncapsulationRule(),
    VirtualOrderPurityRule(),
    PicklabilityRule(),
    IORetryRule(),
    ServingVirtualTimeRule(),
    TranslationEncapsulationRule(),
    LayeringRule(),
    IterationOrderRule(),
    BatchedCounterFlushRule(),
    WallClockTaintRule(),
    FaultDispatchRule(),
    WorkerSharedStateRule(),
    ReplicaWritePathRule(),
)

#: Code -> rule instance, for ``--select`` and the parallel worker pass.
RULES_BY_CODE: dict[str, LintRule] = {rule.code: rule for rule in DEFAULT_RULES}
