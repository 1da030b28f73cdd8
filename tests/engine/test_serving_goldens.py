"""Serving-layer goldens: the admission loop may be rewritten, not moved.

``serve_trace`` and ``serve_transactions`` are thin entry points over one
admission loop; a trace request is the one-request unit, a transaction the
n-request unit.  These digests were recorded from the two hand-written
loops that preceded it (PR 19's tree), re-recorded once when the virtual
clock became an integer tick count (PR 21: no integer, string or list
leaf of any record moved, the 1,614 floats by at most 1.34e-12 relative)
and are committed as literals: every
cell of {trace with ``client_ids``, TPC-C transactions} x {closed loop,
open loop under capacity, open loop over capacity — deadline on} x {bare
device, ``FaultPlan.uniform(0.02)`` plus two dead pages and a one-try
retry policy, so requests requeue and fail permanently} x {breaker off,
on} must leave the identical ``RunMetrics``, serving summary, per-client
summaries, committed-version ledger, breaker ticks, queue peak, final
clock and pool/device/WAL state.  All cells run lru/ace with a WAL,
``commit_every_ops``, a background writer and a checkpointer attached.

``python tests/engine/test_serving_goldens.py`` prints the table (and,
given a cell id, that cell's full record to diff against another tree).
"""

from __future__ import annotations

import dataclasses
import hashlib
import pprint
import sys
from functools import lru_cache
from itertools import count, product

import pytest

from repro.bufferpool.background import BackgroundWriter, Checkpointer
from repro.bufferpool.wal import WalRecord, WriteAheadLog
from repro.core.stack import build_manager
from repro.engine.executor import ExecutionOptions, run_trace
from repro.engine.latency import LatencyRecorder
from repro.engine.multiclient import interleave_traces
from repro.engine.serving import BreakerConfig, ServingConfig, ServingLayer
from repro.faults import FaultPlan, FaultyDevice, RetryPolicy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace
from repro.workloads.tpcc.driver import TPCCWorkload

NUM_PAGES = 600
CAPACITY = 36
OPTIONS = ExecutionOptions(
    cpu_us_per_op=2.0,
    cpu_us_per_transaction=20.0,
    bg_writer_interval_us=4_000.0,
    checkpoint_interval_us=8_000.0,
    commit_every_ops=16,
)
BREAKER = BreakerConfig(
    p99_threshold_us=900.0, window=48, min_samples=12, eval_every=4,
    cooldown_us=6_000.0, probation=2, degraded_n_w=1, degraded_n_e=1,
)

STREAMS = ("trace", "tpcc")
#: name -> (arrival interval, deadline) in microseconds, per stream.
LOADS = {
    "closed": {"trace": (0.0, 0.0), "tpcc": (0.0, 0.0)},
    "under": {"trace": (150.0, 2_500.0), "tpcc": (4_000.0, 12_000.0)},
    "over": {"trace": (12.0, 2_500.0), "tpcc": (100.0, 12_000.0)},
}
DEVICES = ("bare", "faulty")
BREAKERS = ("nobreaker", "breaker")
CELLS = ["-".join(cell) for cell in product(STREAMS, LOADS, DEVICES, BREAKERS)]

GOLDEN: dict[str, str] = {
    "trace-closed-bare-nobreaker": "12674714382e1c3ad4278cb8",
    "trace-closed-bare-breaker": "12674714382e1c3ad4278cb8",
    "trace-closed-faulty-nobreaker": "6dbe4a02460df63c47b3a0e1",
    "trace-closed-faulty-breaker": "744594004a92eb5f4d047c47",
    "trace-under-bare-nobreaker": "58073206a8063cd5c08e6bdf",
    "trace-under-bare-breaker": "47a73136882dd1f9a4fb6f45",
    "trace-under-faulty-nobreaker": "54d248b3d1c73b876b99fe98",
    "trace-under-faulty-breaker": "99f8d2e49d0584d25b65d791",
    "trace-over-bare-nobreaker": "3f8535ca44a103a56a635398",
    "trace-over-bare-breaker": "5eea3d124824bc85523a9228",
    "trace-over-faulty-nobreaker": "0bbcef46dc8207d98fe62a42",
    "trace-over-faulty-breaker": "065c52b4d0319b62899eb8da",
    "tpcc-closed-bare-nobreaker": "7cccb7448289a7c208bc53d6",
    "tpcc-closed-bare-breaker": "d45b09a279dbdfc4a45c1a4a",
    "tpcc-closed-faulty-nobreaker": "6299041c4d9792f46e2e29e6",
    "tpcc-closed-faulty-breaker": "61cdd97f088ed0b3b8fd1a32",
    "tpcc-under-bare-nobreaker": "28582450257faed6fa6ce76c",
    "tpcc-under-bare-breaker": "f4c38b1b2b6357db09df9bde",
    "tpcc-under-faulty-nobreaker": "04add1c96d026f1b83f4556f",
    "tpcc-under-faulty-breaker": "efc0c539cd5821751bbae5aa",
    "tpcc-over-bare-nobreaker": "625c25b276e45a62b4c415fd",
    "tpcc-over-bare-breaker": "dd4822d4e09479a3eab4d817",
    "tpcc-over-faulty-nobreaker": "044846aa91ac23f48ec17b10",
    "tpcc-over-faulty-breaker": "044846aa91ac23f48ec17b10",
}


def _tpcc():
    workload = TPCCWorkload(
        warehouses=1, row_scale=0.02, seed=5, initial_orders_per_district=5
    )
    return workload.total_pages, list(workload.transaction_stream(160))


def _client_trace():
    clients = [
        generate_trace(MS, NUM_PAGES, ops, seed=seed)
        for ops, seed in ((700, 1), (500, 2), (300, 3))
    ]
    return interleave_traces(clients, mode="random", seed=9, weights="remaining")


def _stack(num_pages, capacity, dead_pages):
    device = SimulatedSSD(PCIE_SSD, num_pages=num_pages)
    device.format_pages(range(num_pages))
    wal = WriteAheadLog(device.clock)
    retry = None
    if dead_pages:
        plan = dataclasses.replace(
            FaultPlan.uniform(0.02, seed=3), media_error_pages=dead_pages
        )
        device = FaultyDevice(device, plan)
        retry = RetryPolicy(max_attempts=1)
    return build_manager(
        device, capacity, "lru", "ace", wal=wal, retry=retry, sanitize=False
    )


def state(manager):
    device, wal = manager.device, manager.wal
    return {
        "buffer": dataclasses.asdict(manager.stats),
        "device": dataclasses.asdict(device.stats),
        "clock_us": device.clock.now_us,
        "residency_order": manager.table.pages(),
        "virtual_order": manager.policy.peek(manager.capacity),
        "dirty": manager.dirty_pages(),
        "payloads": device.snapshot_payloads(),
        # Every record, buffered ones too, as the list the digests were
        # recorded over (the log once kept one object per record).
        "wal_records": list(map(
            WalRecord, count(1), wal._kinds, wal._pages, wal._payloads
        )),
        "wal_durable_lsn": wal.durable_lsn,
        "n_w": manager.writer.n_w,
    }


@lru_cache(maxsize=None)
def record(cell):
    """Run one cell; everything it leaves behind, as plain data."""
    stream, load, device, breaker = cell.split("-")
    interval, deadline = LOADS[load][stream]
    serving = ServingConfig(
        queue_capacity=24,
        deadline_us=deadline,
        arrival_interval_us=interval,
        max_attempts=3,
        breaker=BREAKER if breaker == "breaker" else None,
    )
    # Dead pages are taken from the stream itself, early enough to be
    # reached under overload too.
    if stream == "trace":
        num_pages, capacity, work = NUM_PAGES, CAPACITY, _client_trace()
        dead = {work.pages[index] for index in (3, 60, 400)}
    else:
        num_pages, work = _tpcc()
        capacity = max(16, num_pages // 16)
        dead = {work[index][1][-1].page for index in (2, 11)}
    manager = _stack(num_pages, capacity, dead if device == "faulty" else None)
    n_w = manager.writer.n_w
    bg_writer = BackgroundWriter(manager, pages_per_round=8, batch_size=n_w)
    checkpointer = Checkpointer(
        manager, interval_us=OPTIONS.checkpoint_interval_us, batch_size=n_w
    )
    layer = ServingLayer(manager, serving)
    recorder = LatencyRecorder()
    if stream == "trace":
        metrics = run_trace(
            manager, work, options=OPTIONS, bg_writer=bg_writer,
            checkpointer=checkpointer, latencies=recorder, serving=layer,
        )
    else:
        metrics = layer.serve_transactions(
            work, options=OPTIONS, bg_writer=bg_writer, checkpointer=checkpointer,
            client_ids=[index % 3 for index in range(len(work))],
        )
    served = metrics.serving
    assert served is layer.metrics
    return {
        "metrics": dataclasses.asdict(dataclasses.replace(metrics, serving=None)),
        "summary": served.summary(),
        "clients": [served.client(c).summary() for c in sorted(served.per_client)],
        "committed_versions": sorted(served.committed_versions.items()),
        "breaker": (
            served.breaker_trips, served.breaker_restores, served.breaker_recoveries
        ),
        "queue_peak": served.queue_peak,
        "requeued": served.requeued,
        "transactions_completed": served.transactions_completed,
        "forwarded_latencies": (recorder.count, recorder.p50_us, recorder.p99_us),
        "background": (
            bg_writer.rounds, bg_writer.pages_flushed,
            checkpointer.checkpoints_taken, checkpointer.checkpoints_skipped,
        ),
        "state": state(manager),
    }


def digest(recorded) -> str:
    return hashlib.sha256(repr(recorded).encode()).hexdigest()[:24]


@pytest.mark.parametrize("cell", CELLS)
def test_serving_run_matches_its_golden(cell):
    recorded = record(cell)
    assert digest(recorded) == GOLDEN[cell]
    # The cell exercises what its name says (so a golden cannot go vacuous).
    stream, load, device, breaker = cell.split("-")
    summary = recorded["summary"]
    assert summary["completed"] > 0
    assert recorded["committed_versions"]
    assert recorded["background"][0] > 0 and recorded["background"][2] > 0
    if load == "over":
        assert summary["shed"] > 0 and summary["expired"] > 0
    else:
        assert summary["shed"] == 0
    if device == "faulty":
        assert recorded["requeued"] + summary["failed"] > 0
    assert len(recorded["clients"]) == 3
    if stream == "trace":
        assert recorded["forwarded_latencies"][0] == summary["completed"]


def test_the_cells_requeue_fail_and_trip():
    for stream in STREAMS:
        faulty = [record(c) for c in CELLS if c.startswith(stream) and "-faulty-" in c]
        assert min(sum(r["requeued"] for r in faulty),
                   sum(r["summary"]["failed"] for r in faulty)) > 0
    tripped = [c for c in CELLS if c.endswith("-breaker") and record(c)["breaker"][0]]
    assert len(tripped) >= 8


if __name__ == "__main__":
    if len(sys.argv) > 1:
        pprint.pprint(record(sys.argv[1]), width=120)
    else:
        print("GOLDEN: dict[str, str] = {")
        for name in CELLS:
            print(f'    "{name}": "{digest(record(name))}",')
        print("}")
