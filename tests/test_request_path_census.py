"""Census of the places ``src/repro`` drives a page request or builds a run.

A request used to be spelled out in ten loops; every copy is a place the
next observer (a tracer, a fault boundary, a new background process) has to
be threaded through by hand, and one of them had already dropped an
argument.  Two are left: ``replay`` — its inlined loop and its reference
arm — and the partitioned facade's delegation.  A stretch observed at an
*index* (transaction end, commit point, a served request, the next
``crash_at_access``) is one ``replay`` sliced there; one observed at a
*time* (a background process due, a timed node fault) is one ``replay``
given that tick as its deadline; latencies are the I/O ticks ``replay``
reports per stalled request.  So ``run_trace``, the serving layer's
admission loop and the replicated shard no longer reach ``.access``.
The set is pinned: the functions that reach ``manager.access``
— called or bound — and the functions that construct a ``RunMetrics`` are
exactly the ones below, each for the reason beside it.  A new per-request
loop, or a second place that assembles a run's metrics, has to be argued for
here.  The miss exchange is inlined once: only ``_replay_turbo`` reads the
manager's ``_turbo`` tuple, and it tests no page's range: ``replay``
checks a stretch's range once, in C, and hands the rest of a stretch off
at its first page outside.  Replicas are pinned from both sides: the
replication module writes them through the shipment apply alone, and no
other module writes them at all.  The log is pinned too: it is columns, a
``WalRecord`` is built only for the accessors that hand records out, and
only the reference arm appends a record per write (the turbo loop appends
where the log is observed, and stores the log pages it flushes in one call
when its stretch ends).  Like ``test_env_census`` this is an AST walk
over the whole package, not a list of files to look in.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.engine import executor
from repro.policies import LRUPolicy
from repro.workloads.synthetic import MS, generate_trace

from tests._source import SRC, scopes, trees
from tests.bufferpool.conftest import make_device

#: function -> why it must step request by request.
ACCESS_SITES = {
    "repro.engine.executor.replay": (
        "the bulk entry's reference arm: sanitised managers wrap their ops "
        "per instance and facades have no translation vector to inline"
    ),
    "repro.cluster.partitioned.PartitionedBufferPoolManager.access": (
        "the facade's delegation to the owning partition, not a loop"
    ),
}

#: function -> what run it assembles.
RUN_METRICS_SITES = {
    "repro.engine.executor.RunSession.finish": "every single-stack run",
    "repro.cluster.engine.merge_shard_metrics": "the cluster merge",
    "repro.cluster.replication._ReplicaGroup.shard_metrics": (
        "a replica group's serving segments"
    ),
}

#: function -> why it builds ``WalRecord`` views.  The log is columns; a
#: record object exists only where a consumer asks for records.
WAL_RECORD_VIEWS = {
    "repro.bufferpool.wal.WalPageImage.records": (
        "a log page's records, for whoever reads the log device"
    ),
    "repro.bufferpool.wal.WriteAheadLog.records_since": (
        "durable records; durable_records and verify_durable_records too"
    ),
    "repro.bufferpool.wal.WriteAheadLog._flush_buffer": (
        "the flush_hook's argument: a crash schedule inspects each group"
    ),
}

#: function -> why it appends one log record per write.
LOG_UPDATE_SITES = {
    "repro.bufferpool.manager.BufferPoolManager.write_page": (
        "the reference arm: one request, one record"
    ),
}

#: function -> why it reads the manager's ``_turbo`` tuple: everything the
#: inlined exchange touches, bound once.  A second reader is a second
#: inlined copy of the miss routine.
TURBO_READS = {
    "repro.engine.executor._replay_turbo": (
        "the one inlined copy of _handle_miss, unpacked once per stretch"
    ),
}

#: function -> why it binds the tuple (and may read what it rebinds).
TURBO_WRITES = {
    "repro.bufferpool.manager.BufferPoolManager.__init__": (
        "binds it for a bare device"
    ),
    "repro.core.ace.ACEBufferPoolManager.__init__": (
        "rebinds its last slot, the Reader hook"
    ),
    "repro.bufferpool.recovery.simulate_crash": (
        "clears it, so a crashed manager cannot serve hits through replay"
    ),
}

#: A replica is written by ``_GroupNode.apply`` — one ``append_batch``, one
#: ``write_batch`` per shipment — and by nothing per record or per page.
REPLICATION = "repro.cluster.replication"
PER_RECORD_WRITES = {"log_update", "write_page"}
#: Calls that write a stack: outside the replication module, none is made
#: on a receiver whose name says replica.
STACK_WRITES = {"access", "mark_dirty", "write", "write_batch", "write_page"}


@lru_cache(maxsize=None)
def census() -> tuple[Counter, Counter, Counter]:
    """Where ``.access`` is read, where ``RunMetrics(...)`` is called, and
    what the replication module calls."""
    access, run_metrics, replication_calls = Counter(), Counter(), Counter()
    for module, tree in trees(SRC).items():
        for name, scope in scopes(tree, module):
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr == "access":
                    access[name] += 1
                elif isinstance(node, ast.Call):
                    callee = node.func
                    called = getattr(callee, "id", getattr(callee, "attr", None))
                    if called == "RunMetrics":
                        run_metrics[name] += 1
                    if module == REPLICATION:
                        replication_calls[called] += 1
    return access, run_metrics, replication_calls


def test_the_request_is_driven_from_exactly_these_places():
    access, _, _ = census()
    assert access == Counter(dict.fromkeys(ACCESS_SITES, 1))


def test_the_miss_exchange_is_inlined_exactly_once():
    reads, writes = Counter(), Counter()
    for module, tree in trees(SRC).items():
        for name, scope in scopes(tree, module):
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr == "_turbo":
                    stored = isinstance(node.ctx, ast.Store)
                    (writes if stored else reads)[name] += 1
    assert writes.keys() == TURBO_WRITES.keys()
    assert reads.keys() - TURBO_WRITES.keys() == TURBO_READS.keys()


def test_the_inlined_loop_compares_no_page():
    """``_replay_turbo`` trusts every page it is given (``replay`` range-
    checks the stretch): its probe is ``slots[page]`` and its miss path
    tests no device bound.  A per-request range test would add no
    function row to the opcode attribution, so it is pinned here."""
    module = "repro.engine.executor"
    loop = dict(scopes(trees(SRC)[module], module))[f"{module}._replay_turbo"]
    compared = [
        node.lineno
        for node in ast.walk(loop)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Name) and operand.id == "page"
            for operand in (node.left, *node.comparators)
        )
    ]
    assert compared == []


def test_a_run_is_assembled_in_exactly_these_places():
    _, run_metrics, _ = census()
    assert run_metrics == Counter(dict.fromkeys(RUN_METRICS_SITES, 1))


def test_replicas_are_written_only_through_the_shipment_apply():
    _, _, calls = census()
    assert (calls["append_batch"], calls["write_batch"]) == (1, 1)
    assert not PER_RECORD_WRITES & set(calls)


@lru_cache(maxsize=None)
def wal_census() -> tuple[Counter, Counter]:
    """Who calls ``WalRecord`` or hands it to a call (``map``), and who
    reads ``.log_update`` (called or bound)."""
    views, log_updates = Counter(), Counter()
    for module, tree in trees(SRC).items():
        for name, scope in scopes(tree, module):
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr == "log_update":
                    log_updates[name] += 1
                elif isinstance(node, ast.Call) and "WalRecord" in {
                    getattr(arg, "id", None) for arg in (node.func, *node.args)
                }:
                    views[name] += 1
    return views, log_updates


def test_wal_records_are_built_only_for_their_consumers():
    views, _ = wal_census()
    assert views == Counter(dict.fromkeys(WAL_RECORD_VIEWS, 1))


def test_the_log_is_appended_per_write_only_in_these_places():
    _, log_updates = wal_census()
    assert log_updates == Counter(dict.fromkeys(LOG_UPDATE_SITES, 1))


def _names_a_replica(node: ast.AST) -> bool:
    """Whether any link of a receiver chain (``group.replicas[1].device``)
    is named for a replica."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        if "replica" in getattr(node, "attr", "").lower():
            return True
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and "replica" in node.id.lower()


def test_no_other_module_writes_a_replica():
    writes = [
        f"{module}:{node.lineno} .{node.func.attr}()"
        for module, tree in trees(SRC).items()
        if module != REPLICATION
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in STACK_WRITES
        and _names_a_replica(node.func.value)
    ]
    assert writes == []


def test_a_turbo_stretch_stores_its_log_pages_in_one_call():
    """The inlined loop's flushes — a page fill, a write-back's
    WAL-before-data — are timed and durable at once, and their pages land
    in the stretch end's one ``store_writes``: no ``write_page`` per flush.
    A commit flush outside the stretch still writes its page at once."""
    device = make_device(400)
    wal = WriteAheadLog(device.clock, records_per_page=3)
    manager = BufferPoolManager(32, LRUPolicy(), device, wal=wal, sanitize=False)
    assert executor._turbo_ready(manager)
    calls = Counter()
    for name in ("write_page", "store_writes", "write_batch"):
        method = getattr(wal.device, name)

        def counted(*args, _method=method, _name=name):
            calls[_name] += 1
            return _method(*args)

        setattr(wal.device, name, counted)
    trace = generate_trace(MS, 400, 1500, seed=3)
    executor.replay(manager, trace.pages, trace.writes)
    assert manager.stats.dirty_evictions > 0 and wal.pages_written > 100
    assert calls == Counter(store_writes=1)
    assert wal.device.stats.writes == wal.pages_written
    manager.write_page(trace.pages[-1])
    wal.flush()
    assert calls == Counter(store_writes=1, write_page=1)
