"""The metric lists: names, units, directions and regression bounds.

``BENCHMARK.json`` at the repository root repeats these lists for the
driver; ``perfbench/tests/test_manifest.py`` keeps the two in step.

Bounds are the relative worsening of a median that counts as a regression.
Each is set from what was measured on the 2-core reference host (README.md,
"Steadiness"): about three times the widest quartile spread any workload
showed over ten runs with ten seeds, and at least three times the largest
gap between the medians of sets of runs of identical code, capped at the
0.25 the driver allows.  The driver judges steadiness across seeds and a
different seed is a different trace, so even the counts and the simulated
metrics need room; that one seed repeats *exactly* is enforced by
``perfbench/tests`` and by ``python -m perfbench aa``, not by a bound.

``accesses_per_s`` is not an end-to-end metric: on this host the pass-wall
medians of identical code spread 10-20 % between runs, which no bound worth
having survives.  Every run prints it and the traced run reports it.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "NOT_EXERCISED"]

#: (name, unit, better, bound, family)
END_TO_END: tuple[tuple[str, str, str, float, str], ...] = (
    ("cost_vs_calib", "ratio", "lower", 0.25, "host"),
    ("opcodes_per_op", "count", "lower", 0.03, "host"),
    ("virtual_runtime_s", "s", "lower", 0.06, "simulated"),
    ("device_ios_per_kop", "count", "lower", 0.03, "simulated"),
    ("setup_s", "s", "lower", 0.25, "host"),
    ("peak_rss_mb", "MB", "lower", 0.05, "host"),
    ("passed_share", "ratio", "higher", 0.0, "-"),
)

#: Value reported for a layer metric on a workload that does not exercise
#: the layer: the layer did no work there, which is itself the prediction.
NOT_EXERCISED = 0.0

#: (name, unit, better)
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("accesses_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("engine.executor.self_ns_per_op", "ns", "lower"),
    ("bufferpool.table.lookup_ns", "ns", "lower"),
    ("bufferpool.table.insert_delete_ns", "ns", "lower"),
    ("bufferpool.table.dict_over_array", "ratio", "lower"),
    ("policies.on_access_ns", "ns", "lower"),
    ("policies.select_victim_ns", "ns", "lower"),
    ("policies.next_dirty_ns", "ns", "lower"),
    ("bufferpool.manager.hit_ns", "ns", "lower"),
    ("bufferpool.manager.miss_self_ns", "ns", "lower"),
    ("bufferpool.manager.hit_ratio", "ratio", "higher"),
    ("bufferpool.manager.evictions_per_kop", "count", "lower"),
    ("bufferpool.manager.writebacks_per_kop", "count", "lower"),
    ("bufferpool.manager.generic_over_turbo", "ratio", "lower"),
    ("core.writer.select_ns", "ns", "lower"),
    ("core.writer.flush_ns", "ns", "lower"),
    ("core.evictor.select_ns", "ns", "lower"),
    ("core.evictor.evict_ns", "ns", "lower"),
    ("core.reader.select_ns", "ns", "lower"),
    ("core.reader.fetch_ns", "ns", "lower"),
    ("core.mean_writeback_batch", "count", "higher"),
    ("core.ace_over_base", "ratio", "lower"),
    ("core.accounted_share", "ratio", "higher"),
    ("prefetch.observe_ns", "ns", "lower"),
    ("prefetch.on_miss_ns", "ns", "lower"),
    ("prefetch.suggest_ns", "ns", "lower"),
    ("prefetch.issued_per_kop", "count", "lower"),
    ("prefetch.useful_share", "ratio", "higher"),
    ("prefetch.pf_over_ace", "ratio", "lower"),
    ("prefetch.null_over_ace", "ratio", "lower"),
    ("prefetch.accounted_share", "ratio", "higher"),
    ("storage.device.read_ns", "ns", "lower"),
    ("storage.device.write_batch_ns", "ns", "lower"),
    ("storage.device.reads_per_kop", "count", "lower"),
    ("storage.device.writes_per_kop", "count", "lower"),
    ("storage.device.write_batches_per_kop", "count", "lower"),
    ("storage.ftl.ns_per_write", "ns", "lower"),
    ("storage.ftl.write_amplification", "ratio", "lower"),
    ("bufferpool.wal.log_update_ns", "ns", "lower"),
    ("bufferpool.wal.flush_ns", "ns", "lower"),
    ("bufferpool.wal.flushes_per_ktx", "count", "lower"),
    ("bufferpool.wal.pages_per_ktx", "count", "lower"),
    ("bufferpool.wal.wal_over_nowal", "ratio", "lower"),
    ("bufferpool.background.bgwriter_ns_per_round", "ns", "lower"),
    ("bufferpool.background.rounds", "count", "lower"),
    ("bufferpool.background.checkpoint_ns", "ns", "lower"),
    ("bufferpool.background.checkpoints", "count", "lower"),
    ("bufferpool.recovery.crash_ms", "ms", "lower"),
    ("bufferpool.recovery.recover_ms", "ms", "lower"),
    ("bufferpool.recovery.audit_ms", "ms", "lower"),
    ("bufferpool.recovery.redo_records", "count", "lower"),
    ("cluster.router.split_ns_per_op", "ns", "lower"),
    ("cluster.engine.dispatch_ms", "ms", "lower"),
    ("cluster.engine.observed_over_modelled", "ratio", "lower"),
    ("cluster.engine.r0_accesses_per_s", "1/s", "higher"),
    ("cluster.replication.shard_ns_per_op", "ns", "lower"),
    ("cluster.replication.r1_over_r0", "ratio", "lower"),
    ("cluster.replication.shipped_records_per_kop", "count", "lower"),
    ("engine.serving.admit_ns_per_op", "ns", "lower"),
    ("workloads.generate_s", "s", "lower"),
    ("workloads.tolist_s", "s", "lower"),
    ("workloads.tpcc_stream_s", "s", "lower"),
)
