"""Census of the places ``src/repro`` drives a page request or builds a run.

A request used to be spelled out in ten loops; every copy is a place the
next observer (a tracer, a fault boundary, a new background process) has to
be threaded through by hand, and one of them had already dropped an
argument.  Five are left — the two inlined replays behind ``replay`` and
the three below that step — since the clock counts integer ticks: a
stretch observed at an *index* (transaction end, commit boundary, the next
``crash_at_access``) is one ``replay`` plus one tick charge, so
``run_transactions`` and the replicated shard no longer reach ``.access``.
The set is pinned: the functions that reach ``manager.access``
— called or bound — and the functions that construct a ``RunMetrics`` are
exactly the ones below, each for the reason beside it.  A new per-request
loop, or a second place that assembles a run's metrics, has to be argued for
here.  One module is also pinned by what it may *not* call: replicas are
written through the shipment apply alone.  Like ``test_env_census`` this is an AST walk over the whole package,
not a list of files to look in.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

import repro
from repro.analyze.lint import SourceModule, collect_files

SRC = Path(repro.__file__).resolve().parent

#: function -> why it must step request by request.
ACCESS_SITES = {
    "repro.engine.executor.replay": (
        "the bulk entry's reference arm: sanitised managers wrap their ops "
        "per instance and facades have no translation vector to inline"
    ),
    "repro.engine.executor.run_trace": (
        "stepped: latencies, commit points and the background processes "
        "read the clock after every request"
    ),
    "repro.engine.serving.layer.ServingLayer._admit_units": (
        "admitted: deadlines, backoffs and the breaker are times, and a "
        "unit can fail at any request"
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


#: A replica is written by ``_GroupNode.apply`` — one ``append_batch``, one
#: ``write_batch`` per shipment — and by nothing per record or per page.
REPLICATION = "repro.cluster.replication"
PER_RECORD_WRITES = {"log_update", "write_page"}


def _scopes(tree: ast.Module, module: str):
    """``(qualified name, node)`` covering every node of the module once.

    Functions and methods go by their qualified name (closures belong to
    the function that holds them: walking it walks them); any other
    statement goes by the module or class whose body it sits in.
    """
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


@lru_cache(maxsize=None)
def census() -> tuple[Counter, Counter, Counter]:
    """Where ``.access`` is read, where ``RunMetrics(...)`` is called, and
    what the replication module calls."""
    access, run_metrics, replication_calls = Counter(), Counter(), Counter()
    for path in collect_files([SRC]):
        source = SourceModule(path, path.read_text())
        for name, scope in _scopes(source.tree, source.module):
            for node in ast.walk(scope):
                if isinstance(node, ast.Attribute) and node.attr == "access":
                    access[name] += 1
                elif isinstance(node, ast.Call):
                    callee = node.func
                    called = getattr(callee, "id", getattr(callee, "attr", None))
                    if called == "RunMetrics":
                        run_metrics[name] += 1
                    if source.module == REPLICATION:
                        replication_calls[called] += 1
    return access, run_metrics, replication_calls


def test_the_request_is_driven_from_exactly_these_places():
    access, _, _ = census()
    assert access == Counter(dict.fromkeys(ACCESS_SITES, 1))


def test_a_run_is_assembled_in_exactly_these_places():
    _, run_metrics, _ = census()
    assert run_metrics == Counter(dict.fromkeys(RUN_METRICS_SITES, 1))


def test_replicas_are_written_only_through_the_shipment_apply():
    _, _, calls = census()
    assert (calls["append_batch"], calls["write_batch"]) == (1, 1)
    assert not PER_RECORD_WRITES & set(calls)
