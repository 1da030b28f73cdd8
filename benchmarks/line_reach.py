"""Line reach: the lines of ``src/repro`` that no entry point runs.

``python benchmarks/line_reach.py`` (no ``PYTHONPATH``) runs every entry
point of the program under a ``sys.settrace`` line tracer, each in its own
process (two at a time), and unions the lines they ran:

* every ``repro`` CLI command, as ``python -m repro`` runs it: ``run``
  for the paper's four policies x three variants, ``probe``, ``compare``,
  ``tpcc``, ``experiment``, ``summary``, ``check`` and the five other
  verdict commands at ``--smoke`` (their only other options are
  ``--workers`` and ``crashpoints --max-points``);
* the 24 benches, whose test functions are called with a stub
  ``benchmark`` whose ``pedantic`` calls the function;
* the examples;
* perfbench's six workloads (``perfbench.measure`` at a small scale);
* one pass under ``REPRO_FAULTS=0`` and one under ``REPRO_SANITIZE=1``,
  as CI's two suites run them, and one at two workers so the process
  pool's side of ``fan_out`` counts.

Benches, ``experiment`` and ``summary`` write their reports to a
temporary directory (``REPRO_RESULTS_DIR``), never to ``results/``.

For each module it prints the lines no entry point ran, in three groups:

1. **error paths**, which stay: a ``raise`` or ``assert``, a branch that
   ends in one, an ``except`` handler (fault retries live there), a
   returned exception and a function that only builds or raises one;
2. **named by tests**: a function none of whose lines ran, whose name
   ``tests/`` uses;
3. **candidates**: everything else.

A candidate is deleted with its tests, or covered by a row of ``KEPT``
(a module, or ``module:Qualified.name``, with the reason it stays); a
``KEPT`` row also covers the functions ``tests/`` names.  The exit status
is 1 when a candidate is outside ``KEPT`` or a ``KEPT`` row covers no
unreached line (stale), else 0.  About 6 min on a 2-core host.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import importlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Why unreached code stays, one reason per kind of code.
DICT = (
    "the dict translation backend: perfbench's `dict_over_array` builds it "
    "(ROADMAP 0(b), then 18)"
)
MULTI = "item 13 replaces it (ROADMAP 13)"
SERVING = (
    "the admission loop's closed loop, expiry, requeue, failure, pressure "
    "shedding and late completion: `overload --smoke` and `chaos --smoke`'s "
    "served cell serve open-loop, no request misses its deadline there, and "
    "the manager's retries absorb every injected fault; "
    "tests/engine/test_serving_goldens.py pins each branch"
)
BREAKER = (
    "the breaker's restore and close: no smoke sweep runs long enough after "
    "a trip; the serving goldens and tests/engine/serving pin both"
)
CLI = (
    "a `repro` option the traced invocations do not pass (`--alpha`, "
    "`--read-fraction`, `probe --device`, `experiment --workers`, a "
    "`--policies` item that does not parse); tests/test_cli.py runs it"
)
FAILURE = (
    "builds the report of a failed check (lost or phantom updates, a failed "
    "cell, a missed bound); it runs only when the check fails, which tests "
    "plant"
)
FAULT = (
    "a branch only an injected fault takes (a permanent media error, a "
    "failed write-back and the degraded eviction after it, a timed node "
    "crash, a stale page to repair); tests/faults and tests/cluster drive it"
)
INVARIANT = (
    "an invariant check's branch for a stack the sanitized passes do not "
    "build; CI's sanitized tier-1 job reaches it"
)
PARSE = (
    "parses a `REPRO_FAULTS` spec other than `0`; CI sets `0`, "
    "tests/faults parse the rest"
)
OUTSIDE = (
    "hands a stretch off at a page outside the device, where the reference "
    "arm refuses the request; tests/engine/test_wal_deferral.py and "
    "test_replay_deadline.py drive it"
)
SHAPE = (
    "a stack or run shape no entry point builds (a WAL stack under a "
    "deadline, a cluster on an FTL device, a Reader that only trains, a "
    "flush of a whole WAL stack); tests build it"
)
WORKERS = (
    "the worker count when neither `--workers` nor `REPRO_WORKERS` names "
    "one; every traced pass sets `REPRO_WORKERS`"
)
DEFAULT = (
    "the default of an optional argument every caller passes, or the "
    "coercion of an argument every caller passes in its final type"
)
GUARD = (
    "an early exit for a degenerate input (nothing to do, a zero divisor, an "
    "empty batch, a flat series) that no entry point sends; tests drive it"
)
POLICY = (
    "a replacement-policy branch for a pool state no traced run reaches "
    "(pinned pages in the victim's way, a dirty page leaving CFLRU's "
    "window); tests/policies drive it"
)
DEVICE = (
    "a device or FTL corner (a one-page or empty batch, a checksummed "
    "device's checksums, a restore after a crash image, GC opening a fresh "
    "block); tests/storage drive it"
)
PERF = (
    "a log page filled by `log_update`, which perfbench's layer table "
    "(`perfbench trace`) times; the loops append in bulk"
)
DISPLAY = (
    "a protocol hook Python calls (`repr`, `str`, iteration, truth, "
    "pickling); no entry point prints or iterates the object, tests do"
)

#: Unreached code that stays -> why.  A key is a module (``repro.x.y``)
#: or ``module:Qualified.name``, which covers that definition's lines.
KEPT = {
    "repro.bufferpool.table:BufferTable": DICT,
    "repro.bufferpool.table:_SlotDict": DICT,
    "repro.engine.multiclient": MULTI,
    "repro.bufferpool.table:make_table": DICT,
    "repro.bufferpool.table:resolve_backend": DICT,
    "repro.engine.serving.layer:ServingLayer._admit": SERVING,
    "repro.engine.serving.layer:ServingLayer._admit_requests": SERVING,
    "repro.engine.serving.layer:ServingLayer._complete": SERVING,
    "repro.engine.serving.layer:ServingLayer._expire": SERVING,
    "repro.engine.serving.layer:ServingLayer._fail": SERVING,
    "repro.engine.serving.layer:ServingLayer._promote_deferred": SERVING,
    "repro.engine.serving.layer:ServingLayer._requeue_or_fail": SERVING,
    "repro.engine.serving.layer:_is_permanent": SERVING,
    "repro.engine.serving.queue:AdmissionQueue.expire_due": SERVING,
    "repro.engine.serving.breaker:CircuitBreaker._close": BREAKER,
    "repro.engine.serving.breaker:CircuitBreaker._restore": BREAKER,
    "repro.engine.serving.breaker:CircuitBreaker.observe": BREAKER,
    "repro.cli:_cmd_experiment": CLI,
    "repro.cli:_cmd_probe": CLI,
    "repro.cli:_listed": CLI,
    "repro.cli:_resolve_device": CLI,
    "repro.cli:_resolve_workload": CLI,
    "repro.bench.chaos:format_report": FAILURE,
    "repro.bench.cluster:ClusterSweepReport.placement_failures": FAILURE,
    "repro.bench.failover:FailoverSweepReport.failures": FAILURE,
    "repro.bench.overload:format_report": FAILURE,
    "repro.bench.parallel:run_grid": FAILURE,
    "repro.bufferpool.recovery:audit_committed": FAILURE,
    "repro.errors:IOFaultError.__init__": FAILURE,
    "repro.verify.check:_check_stack": FAILURE,
    "repro.verify.check:format_report": FAILURE,
    "repro.verify.crashpoints:_ledger_from_records": FAILURE,
    "repro.verify.crashpoints:_test_point": FAILURE,
    "repro.verify.crashpoints:format_report": FAILURE,
    "repro.bufferpool.manager:BufferPoolManager._clean_victim_fallback": FAULT,
    "repro.bufferpool.manager:BufferPoolManager._degraded_victim": FAULT,
    "repro.bufferpool.manager:BufferPoolManager._retry_write_back": FAULT,
    "repro.bufferpool.repair:Scrubber.run_round": FAULT,
    "repro.cluster.replication:_ReplicaGroup._durable_images": FAULT,
    "repro.cluster.replication:_ReplicaGroup._fault_due": FAULT,
    "repro.cluster.router:MappedShardRouter._spawn": FAULT,
    "repro.core.ace:ACEBufferPoolManager._exchange_wide": FAULT,
    "repro.engine.metrics:RunMetrics.summary": FAULT,
    "repro.faults.device:FaultyDevice.read_batch": FAULT,
    "repro.faults.device:FaultyDevice.write_batch": FAULT,
    "repro.faults.nodes:NodeFaultPlan.faults_for.key": FAULT,
    "repro.faults.plan:FaultInjector.on_read": FAULT,
    "repro.faults.plan:FaultInjector.on_write": FAULT,
    "repro.analyze.sanitizer:InvariantSanitizer._check_wal_index": INVARIANT,
    "repro.analyze.sanitizer:_snapshot": INVARIANT,
    "repro.faults.plan:FaultPlan.parse": PARSE,
    "repro.engine.executor:replay": OUTSIDE,
    "repro.bufferpool.manager:BufferPoolManager._fetch_batch": SHAPE,
    "repro.bufferpool.manager:BufferPoolManager._handle_miss": SHAPE,
    "repro.bufferpool.manager:BufferPoolManager.flush_all": SHAPE,
    "repro.bufferpool.wal:WriteAheadLog.redo_since": SHAPE,
    "repro.cluster.engine:merge_shard_metrics": SHAPE,
    "repro.cluster.replication:_ReplicaGroup.shard_metrics": SHAPE,
    "repro.core.ace:ACEBufferPoolManager.flush_all": SHAPE,
    "repro.core.reader:Reader.select_prefetch_set": SHAPE,
    "repro.engine.executor:_cut": SHAPE,
    "repro.engine.executor:_replay_turbo": SHAPE,
    "repro.storage.smart:SmartMonitor.snapshot": SHAPE,
    "repro.workloads.ycsb:generate_ycsb_trace.skewed_page": SHAPE,
    "repro.bench.parallel:resolve_workers": WORKERS,
    "repro.cluster.engine:_execute_jobs": WORKERS,
    "repro.bench.runner:compare_policies": DEFAULT,
    "repro.core.ace:ACEBufferPoolManager.__init__": DEFAULT,
    "repro.faults.nodes:NodeFaultPlan.__post_init__": DEFAULT,
    "repro.faults.plan:FaultPlan.__post_init__": DEFAULT,
    "repro.analyze.sanitizer:attach": GUARD,
    "repro.bench.cluster:ClusterSweepReport.cell": GUARD,
    "repro.bench.failover:FailoverCell.ok": GUARD,
    "repro.bench.overload:OverloadCurve.graceful": GUARD,
    "repro.bench.plot:line_chart": GUARD,
    "repro.bench.repeats:ReplicatedResult.cv": GUARD,
    "repro.bench.repeats:ReplicatedResult.std": GUARD,
    "repro.bench.summary:assemble_experiments_md": GUARD,
    "repro.bufferpool.background:Checkpointer.checkpoint": GUARD,
    "repro.bufferpool.manager:BufferPoolManager._write_back": GUARD,
    "repro.bufferpool.repair:repair_page": GUARD,
    "repro.bufferpool.stats:BufferStats.hit_ratio": GUARD,
    "repro.bufferpool.stats:BufferStats.mean_writeback_batch": GUARD,
    "repro.bufferpool.stats:BufferStats.miss_ratio": GUARD,
    "repro.bufferpool.stats:BufferStats.prefetch_accuracy": GUARD,
    "repro.cluster.engine:ClusterMetrics.aggregate_accesses_per_sec": GUARD,
    "repro.cluster.engine:ClusterMetrics.ops_imbalance": GUARD,
    "repro.cluster.placement:imbalance": GUARD,
    "repro.cluster.placement:locality_placement": GUARD,
    "repro.cluster.replication:ReplicationSummary.availability": GUARD,
    "repro.cluster.router:MappedShardRouter.shard_of": GUARD,
    "repro.core.ace:ACEBufferPoolManager.exit_degraded_batching": GUARD,
    "repro.core.adaptive:AdaptiveACEBufferPoolManager.tuned_n_w": GUARD,
    "repro.engine.latency:LatencyRecorder.max_us": GUARD,
    "repro.engine.latency:LatencyRecorder.mean_us": GUARD,
    "repro.engine.latency:LatencyRecorder.percentile": GUARD,
    "repro.engine.metrics:RunMetrics.ops_per_second": GUARD,
    "repro.engine.metrics:RunMetrics.tpmc": GUARD,
    "repro.engine.metrics:percent_delta": GUARD,
    "repro.engine.serving.metrics:ServingMetrics.goodput_per_s": GUARD,
    "repro.engine.serving.metrics:ServingMetrics.offered_per_s": GUARD,
    "repro.policies.clock:ClockSweepPolicy.eviction_order": GUARD,
    "repro.policies.clock:ClockSweepPolicy.select_victim": GUARD,
    "repro.policies.lru_wsr:LRUWSRPolicy.next_dirty": GUARD,
    "repro.policies.lru_wsr:LRUWSRPolicy.peek": GUARD,
    "repro.policies.lru_wsr:LRUWSRPolicy.select_victim": GUARD,
    "repro.prefetch.history:HistoryPrefetcher.suggest": GUARD,
    "repro.storage.latency:LatencyModel._batch_us": GUARD,
    "repro.storage.smart:SmartAttributes.write_amplification": GUARD,
    "repro.verify.crashpoints:_spread": GUARD,
    "repro.workloads.tpcc.schema:TPCCDatabase.latest_order": GUARD,
    "repro.workloads.tpcc.transactions:TPCCTransactionGenerator.order_status": GUARD,
    "repro.workloads.trace:Trace.locality": GUARD,
    "repro.workloads.trace:Trace.read_fraction": GUARD,
    "repro.policies.cflru:CFLRUPolicy.peek": POLICY,
    "repro.policies.cflru:CFLRUPolicy.remove": POLICY,
    "repro.policies.cflru:CFLRUPolicy.select_victim": POLICY,
    "repro.policies.lru:LRUPolicy.select_victim": POLICY,
    "repro.storage.device:SimulatedSSD._check_pages": DEVICE,
    "repro.storage.device:SimulatedSSD._verify_checksum": DEVICE,
    "repro.storage.device:SimulatedSSD.read_batch": DEVICE,
    "repro.storage.device:SimulatedSSD.restore_payloads": DEVICE,
    "repro.storage.device:SimulatedSSD.store_writes": DEVICE,
    "repro.storage.device:SimulatedSSD.verify_page": DEVICE,
    "repro.storage.device:SimulatedSSD.write_batch": DEVICE,
    "repro.storage.device:SimulatedSSD.write_page": DEVICE,
    "repro.storage.ftl:FlashTranslationLayer._collect": DEVICE,
    "repro.storage.ftl:FlashTranslationLayer.write_batch": DEVICE,
    "repro.bufferpool.wal:WriteAheadLog.log_update": PERF,
    "repro.bench.parallel:GridFailure.__bool__": DISPLAY,
    "repro.bench.repeats:ReplicatedResult.__str__": DISPLAY,
    "repro.bufferpool.manager:BufferPoolManager.__repr__": DISPLAY,
    "repro.bufferpool.tag:BufferTag.__str__": DISPLAY,
    "repro.cluster.partitioned:PartitionedBufferPoolManager.__repr__": DISPLAY,
    "repro.cluster.router:MappedShardRouter.__repr__": DISPLAY,
    "repro.cluster.router:ShardRouter.__repr__": DISPLAY,
    "repro.engine.latency:LatencyRecorder.__repr__": DISPLAY,
    "repro.engine.serving.metrics:ServingMetrics.__repr__": DISPLAY,
    "repro.engine.serving.queue:Request.__repr__": DISPLAY,
    "repro.errors:NodeFailure.__reduce__": DISPLAY,
    "repro.faults.device:FaultyDevice.__repr__": DISPLAY,
    "repro.faults.plan:FaultInjector.__repr__": DISPLAY,
    "repro.faults.retry:RetryPolicy.__repr__": DISPLAY,
    "repro.policies.base:ReplacementPolicy.__repr__": DISPLAY,
    "repro.prefetch.base:Prefetcher.__repr__": DISPLAY,
    "repro.storage.clock:VirtualClock.__repr__": DISPLAY,
    "repro.storage.device:SimulatedSSD.__repr__": DISPLAY,
    "repro.workloads.trace:PageRequest.__str__": DISPLAY,
    "repro.workloads.trace:Trace.__iter__": DISPLAY,
}

#: How many entry points trace at once.
JOBS = 2


class Entry(NamedTuple):
    name: str
    kind: str  # cli | bench | example | perfbench
    args: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()


_SMALL = ("--pages", "2000", "--ops", "4000")


def entry_points() -> list[Entry]:
    """Every entry point the tool traces, in the order it runs them."""
    entries = [
        Entry(f"bench {path.stem}", "bench", (path.stem,))
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
    ]
    entries += [
        Entry(f"repro {command} --smoke", "cli", (command, "--smoke"))
        for command in ("chaos", "crashpoints", "overload", "failover", "cluster")
    ]
    entries += [
        Entry("repro check", "cli", ("check",)),
        Entry("repro probe", "cli", ("probe",)),
        Entry("repro summary", "cli", ("summary", "--output", "{tmp}/EXPERIMENTS.md"),
              (("REPRO_RESULTS_DIR", str(ROOT / "results")),)),
        Entry("repro experiment table1", "cli", ("experiment", "table1")),
        Entry("repro tpcc", "cli", ("tpcc", "--transactions", "200")),
        Entry("repro compare", "cli", ("compare", *_SMALL)),
    ]
    entries += [
        Entry(
            f"repro run {policy}/{variant}", "cli",
            ("run", "--policy", policy, "--variant", variant, *_SMALL),
        )
        for policy in ("clock", "lru", "cflru", "lru_wsr")
        for variant in ("baseline", "ace", "ace+pf")
    ]
    entries += [
        Entry(f"example {path.stem}", "example", (str(path),))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    entries += [
        Entry(f"perfbench {workload}", "perfbench", (workload,))
        for workload in (
            "ms_base", "ms_ace", "ms_acepf", "fit_hits", "tpcc_durable", "cluster_r1",
        )
    ]
    for switch in (("REPRO_FAULTS", "0"), ("REPRO_SANITIZE", "1")):
        entries += [
            Entry(f"{switch[0]}={switch[1]} repro run", "cli",
                  ("run", "--variant", "ace+pf", *_SMALL), (switch,)),
            Entry(f"{switch[0]}={switch[1]} repro tpcc", "cli",
                  ("tpcc", "--transactions", "200"), (switch,)),
        ]
    entries += [
        Entry("workers=2 repro compare", "cli",
              ("compare", *_SMALL, "--policies", "lru,cflru", "--workers", "2")),
        Entry("workers=2 repro cluster --smoke", "cli",
              ("cluster", "--smoke", "--workers", "2")),
    ]
    return entries


# ------------------------------------------------------------ tracing


def trace_lines(run, package: Path = PACKAGE) -> dict[str, set[int]]:
    """Call ``run()`` under the line tracer; the lines it ran in each file
    of ``package``."""
    prefix = str(package) + os.sep
    reached: dict = {}  # code object -> set of lines, or None outside package
    tracers: dict = {}

    def on_call(frame, event, arg):
        code = frame.f_code
        lines = reached.get(code, False)
        if lines is None:
            return None
        if lines is False:
            if not code.co_filename.startswith(prefix):
                reached[code] = None
                return None
            lines = reached[code] = set()
            add = lines.add

            def on_line(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return on_line

            tracers[code] = on_line
        lines.add(code.co_firstlineno)
        return tracers[code]

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    merged: dict[str, set[int]] = defaultdict(set)
    for code, lines in reached.items():
        if lines:
            merged[code.co_filename] |= lines
    return merged


def _trace_entry(entry: Entry, tmp: str) -> dict[str, list[int]]:
    """Run ``entry`` in this process under the line tracer."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ.setdefault("REPRO_RESULTS_DIR", tmp)
    reached = trace_lines(lambda: _run(entry, tmp))
    return {name: sorted(lines) for name, lines in reached.items()}


class _Benchmark:
    """pytest-benchmark's fixture, reduced to running the function once."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))


def _run(entry: Entry, tmp: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if entry.kind == "cli":
            # As ``python -m repro ARGS`` runs it.
            sys.argv = ["repro", *(arg.replace("{tmp}", tmp) for arg in entry.args)]
            try:
                runpy.run_module("repro", run_name="__main__", alter_sys=True)
            except SystemExit as done:
                if done.code:
                    raise SystemExit(f"{entry.name} exited {done.code}") from None
        elif entry.kind == "bench":
            module = importlib.import_module(f"benchmarks.{entry.args[0]}")
            for name in dir(module):
                if name.startswith("test_"):
                    getattr(module, name)(_Benchmark())
        elif entry.kind == "example":
            runpy.run_path(entry.args[0], run_name="__main__")
        else:
            from perfbench.measure import measure

            report = measure(entry.args[0], 42, 0.2, scale=0.1)
            if report.failed:
                raise SystemExit(f"{entry.name}: {report.failures}")


def _trace_all(entries: list[Entry]) -> dict[str, set[int]]:
    """Trace every entry, ``JOBS`` processes at a time; the union of lines."""
    union: dict[str, set[int]] = defaultdict(set)
    failures = []

    def one(index: int, entry: Entry) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "reached.json"
            env = {**os.environ, "REPRO_WORKERS": "1", **dict(entry.env)}
            for switch in ("REPRO_FAULTS", "REPRO_SANITIZE", "REPRO_TABLE",
                           "REPRO_RESULTS_DIR"):
                if switch not in dict(entry.env):
                    env.pop(switch, None)
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, __file__, "--entry", str(index), str(out)],
                cwd=tmp, env=env, capture_output=True, text=True,
            )
            seconds = time.monotonic() - started
            if done.returncode:
                failures.append(f"{entry.name}:\n{done.stderr[-2000:]}")
                print(f"  FAILED {entry.name} ({seconds:.0f} s)", flush=True)
                return
            for name, lines in json.loads(out.read_text()).items():
                union[name] |= set(lines)
            print(f"  traced {entry.name} ({seconds:.0f} s)", flush=True)

    with ThreadPoolExecutor(JOBS) as pool:
        list(pool.map(one, range(len(entries)), entries))
    if failures:
        raise SystemExit("entry points failed:\n" + "\n".join(failures))
    return union


# ------------------------------------------------------- classification


_EXCEPTION_NAME = re.compile(r"(Error|Exception|Fault|Violation)$")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)


def executable_lines(source: str) -> set[int]:
    """Lines where a statement's bytecode starts, docstrings excluded."""
    lines = set()
    codes = [compile(source, "<module>", "exec")]
    while codes:
        code = codes.pop()
        lines |= {line for _, line in dis.findlinestarts(code) if line}
        codes += [const for const in code.co_consts if hasattr(const, "co_code")]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            lines -= set(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            # Imports for annotations only: never run, by design.
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def _builds_exception(node: ast.AST | None) -> bool:
    """Whether ``node`` constructs an exception (alone or in a tuple)."""
    if isinstance(node, ast.Tuple):
        return any(map(_builds_exception, node.elts))
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return bool(_EXCEPTION_NAME.search(name))


def _ends_in_error(block: list[ast.stmt]) -> bool:
    last = block[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Return) and _builds_exception(last.value)
    )


def _is_error_function(node: ast.AST) -> bool:
    """A function that only raises an exception or returns one."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    returns = [
        child for child in ast.walk(node)
        if isinstance(child, ast.Return) and child.value is not None
    ]
    if returns:
        return all(_builds_exception(child.value) for child in returns)
    return isinstance(node.body[-1], ast.Raise)


class Module:
    """One source file: its statements, their scopes and blocks."""

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.name = ".".join(path.relative_to(root).with_suffix("").parts)
        self.name = self.name.removesuffix(".__init__")
        source = path.read_text()
        self.executable = executable_lines(source)
        #: line -> (innermost statement, its enclosing blocks and scopes)
        self.owner: dict[int, tuple[ast.stmt, tuple, tuple]] = {}
        self._functions: list[tuple[ast.FunctionDef, tuple]] = []
        self._walk(ast.parse(source), (), ())

    def _walk(self, node: ast.AST, chain: tuple, qualname: tuple) -> None:
        for field in ("body", "orelse", "finalbody", "handlers"):
            block = getattr(node, field, None)
            if not isinstance(block, list) or not block:
                continue
            for child in block:
                inner = (*chain, (node, field, block))
                names = qualname
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = (*qualname, child.name)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._functions.append((child, names))
                for line in range(child.lineno, child.end_lineno + 1):
                    self.owner[line] = (child, inner, names)
                self._walk(child, inner, names)
        for case in getattr(node, "cases", ()):
            self._walk(case, chain, qualname)

    def is_error(self, line: int) -> bool:
        statement, chain, _ = self.owner[line]
        if isinstance(statement, (ast.Raise, ast.Assert, ast.ExceptHandler)):
            return True
        if isinstance(statement, ast.Return) and _builds_exception(statement.value):
            return True
        if isinstance(statement, ast.If) and _ends_in_error(statement.body):
            return True
        for parent, field, block in reversed(chain):
            if isinstance(parent, ast.ExceptHandler):
                return True
            if _is_error_function(parent):
                return True
            if isinstance(parent, _SCOPES):
                return False
            if _ends_in_error(block):
                return True
        return False

    def qualname(self, line: int) -> str:
        return ".".join(self.owner[line][2]) or "<module>"

    def functions(self) -> Iterable[tuple[str, set[int]]]:
        """(name, executable body lines) of every function."""
        for node, names in self._functions:
            body = range(node.body[0].lineno, node.end_lineno + 1)
            yield node.name, self.executable.intersection(body)


def _test_words(tests: Path) -> set[str]:
    words = set()
    for path in tests.rglob("*.py"):
        words |= set(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


class Report(NamedTuple):
    executable: int
    unreached: int
    groups: dict  # module -> {"error"|"tests"|"kept"|"candidate": {line: qualname}}
    stale: list[str]


def classify(reached: dict[str, set[int]], kept: dict[str, str] = KEPT,
             package: Path = PACKAGE, tests: Path = ROOT / "tests") -> Report:
    """Group every unreached executable line of ``package``; a function
    is named by tests if its name is a word of a file under ``tests``."""
    words = _test_words(tests)
    groups: dict[str, dict[str, dict[int, str]]] = {}
    executable = unreached = 0
    covered = defaultdict(int)
    for path in sorted(package.rglob("*.py")):
        module = Module(path, package.parent)
        ran = reached.get(str(path), set())
        missing = {line for line in module.executable - ran if line in module.owner}
        executable += len(module.executable)
        unreached += len(missing)
        unrun_functions = {
            line: name
            for name, lines in module.functions()
            if not lines & ran
            for line in lines
        }
        found: dict[str, dict[int, str]] = defaultdict(dict)
        for line in sorted(missing):
            qualname = module.qualname(line)
            scope = f"{module.name}:{qualname}"
            if module.is_error(line):
                found["error"][line] = qualname
                continue
            row = next(
                (key for key in kept
                 if key == module.name or scope == key or scope.startswith(key + ".")),
                None,
            )
            if row is not None:
                covered[row] += 1
                found["kept"][line] = qualname
            elif unrun_functions.get(line) in words:
                found["tests"][line] = qualname
            else:
                found["candidate"][line] = qualname
        if found:
            groups[module.name] = found
    stale = [key for key in kept if not covered[key]]
    return Report(executable, unreached, groups, stale)


def _ranges(lines: dict[int, str]) -> list[str]:
    """``qualname l.a-b`` for each run of consecutive lines."""
    out = []
    for line in sorted(lines):
        name = lines[line]
        if out and out[-1][0] == name and out[-1][2] >= line - 3:
            out[-1][2] = line
            out[-1][3] += 1
        else:
            out.append([name, line, line, 1])
    return [
        f"{name} l.{start}" + (f"-{end}" if end > start else "") + f" ({count})"
        for name, start, end, count in out
    ]


_TITLES = (
    ("error", "error paths (stay)"),
    ("tests", "named by tests/"),
    ("kept", "kept"),
    ("candidate", "CANDIDATES"),
)


def render(report: Report) -> str:
    lines = []
    totals = defaultdict(int)
    for module, found in report.groups.items():
        lines.append(module)
        for group, title in _TITLES:
            if group in found:
                totals[group] += len(found[group])
                lines.append(f"  {title}: {len(found[group])} lines")
                lines += [f"    {text}" for text in _ranges(found[group])]
    lines.append(
        f"{report.executable} executable lines, {report.unreached} unreached: "
        + ", ".join(f"{totals[group]} {title}" for group, title in _TITLES)
    )
    for key in report.stale:
        lines.append(f"STALE KEPT row {key}: covers no unreached line")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv[:1] == ["--entry"]:
        entry = entry_points()[int(argv[1])]
        reached = _trace_entry(entry, os.getcwd())
        Path(argv[2]).write_text(json.dumps(reached))
        return 0
    entries = entry_points()
    print(f"tracing {len(entries)} entry points, {JOBS} at a time", flush=True)
    report = classify(_trace_all(entries))
    print(render(report))
    candidates = sum(len(found.get("candidate", ())) for found in report.groups.values())
    return 1 if candidates or report.stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
