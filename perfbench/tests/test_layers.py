"""The traced run: every layer metric on every workload, zero where bypassed."""

import json

import pytest

from perfbench.layers import trace_layers
from perfbench.metrics import PER_LAYER

#: Metrics that must be non-zero on the workload that exercises the layer.
#: (The ``accounted_share`` metrics divide by a difference of two walls,
#: which at this size is timing noise of either sign.)
EXERCISED = {
    "ms_base": [
        "engine.executor.self_ns_per_op", "bufferpool.manager.hit_ns",
        "bufferpool.manager.miss_self_ns", "storage.device.read_ns",
        "storage.device.write_batch_ns", "bufferpool.manager.generic_over_turbo",
        "engine.serving.admit_ns_per_op", "workloads.generate_s",
    ],
    "ms_ace": [
        "core.writer.select_ns", "core.writer.flush_ns", "core.evictor.evict_ns",
        "core.mean_writeback_batch", "core.ace_over_base",
    ],
    "ms_acepf": [
        "core.evictor.select_ns", "core.reader.select_ns", "core.reader.fetch_ns",
        "prefetch.observe_ns", "prefetch.on_miss_ns", "prefetch.suggest_ns",
        "prefetch.pf_over_ace", "prefetch.null_over_ace",
    ],
    "fit_hits": ["engine.executor.self_ns_per_op", "bufferpool.manager.hit_ns"],
    "tpcc_durable": [
        "core.writer.flush_ns", "storage.ftl.write_amplification",
        "bufferpool.wal.log_update_ns", "bufferpool.wal.flush_ns",
        "bufferpool.wal.flushes_per_ktx", "bufferpool.wal.pages_per_ktx",
        "bufferpool.wal.wal_over_nowal", "bufferpool.background.rounds",
        "bufferpool.background.bgwriter_ns_per_round",
        "bufferpool.recovery.recover_ms", "bufferpool.recovery.redo_records",
        "workloads.tpcc_stream_s",
    ],
    "cluster_r1": [
        "cluster.engine.dispatch_ms", "cluster.engine.observed_over_modelled",
        "cluster.engine.r0_accesses_per_s", "cluster.replication.shard_ns_per_op",
        "cluster.replication.r1_over_r0",
        "cluster.replication.shipped_records_per_kop",
    ],
}
#: Metrics every traced run measures directly.
EVERYWHERE = [
    "accesses_per_s", "trace.overhead_ratio", "bufferpool.table.lookup_ns",
    "bufferpool.table.dict_over_array", "policies.on_access_ns",
    "policies.select_victim_ns", "policies.next_dirty_ns",
    "cluster.router.split_ns_per_op", "workloads.tolist_s",
    "bufferpool.manager.hit_ratio",
]
#: Layers that must have done nothing.
BYPASSED = {
    "ms_base": ["core.writer.flush_ns", "core.ace_over_base",
                "prefetch.observe_ns", "bufferpool.wal.flush_ns",
                "cluster.engine.dispatch_ms"],
    "ms_ace": ["prefetch.observe_ns", "core.reader.fetch_ns",
               "bufferpool.wal.log_update_ns"],
    "fit_hits": ["core.writer.flush_ns", "prefetch.suggest_ns",
                 "storage.device.write_batch_ns", "bufferpool.wal.flush_ns"],
    "tpcc_durable": ["prefetch.observe_ns", "cluster.engine.dispatch_ms"],
    "cluster_r1": ["core.writer.flush_ns", "prefetch.observe_ns"],
}


@pytest.mark.parametrize("workload", list(EXERCISED))
def test_layer_metrics(workload):
    traced = trace_layers(workload, seed=42, scale=0.05)
    assert traced.failures == []
    assert traced.attempted >= 1
    assert list(traced.metrics) == [name for name, _, _ in PER_LAYER]
    for name in EXERCISED[workload] + EVERYWHERE:
        assert traced.metrics[name] > 0, name
    for name in BYPASSED.get(workload, []):
        assert traced.metrics[name] == 0, name

    spans = json.loads(traced.spans_path.read_text())
    count = len(spans["name"])
    assert count > 0
    for column in ("start_ns", "end_ns", "parent", "pass"):
        assert len(spans[column]) == count
    # A parent opens before its child and closes after it.
    for index, parent in enumerate(spans["parent"]):
        assert parent < index
        if parent >= 0:
            assert spans["start_ns"][parent] <= spans["start_ns"][index]
            assert spans["end_ns"][index] <= spans["end_ns"][parent]
