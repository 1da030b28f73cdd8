"""Serving-layer goldens: the admission loop may be rewritten, not moved.

``run_trace(..., serving=layer)`` drives the one admission loop, whose
unit is one page request.  These digests were recorded from the
hand-written loop that preceded it, re-recorded when the virtual clock
became an integer tick count (no integer, string or list leaf of any
record moved, the floats by at most 1.34e-12 relative) and again when
device, retry and run times became tick counts (no leaf moved but the
six time fields of the device and buffer stats and the metrics, which
now hold ticks, each within 1.91e-13 relative of its old µs float once
converted with ``to_us``), and again when ``cpu_ticks`` became the CPU
the run charged instead of elapsed minus device time (no leaf moved but
``metrics.cpu_ticks``), and are committed as literals: every
cell of {trace with ``client_ids``} x {closed loop,
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
from repro.storage.clock import to_ticks
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace

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

#: name -> (arrival interval, deadline) in microseconds.
LOADS = {
    "closed": (0.0, 0.0),
    "under": (150.0, 2_500.0),
    "over": (12.0, 2_500.0),
}
DEVICES = ("bare", "faulty")
BREAKERS = ("nobreaker", "breaker")
CELLS = ["-".join(cell) for cell in product(("trace",), LOADS, DEVICES, BREAKERS)]

GOLDEN: dict[str, str] = {
    "trace-closed-bare-nobreaker": "90082b6c65dd6e05929ee42a",
    "trace-closed-bare-breaker": "90082b6c65dd6e05929ee42a",
    "trace-closed-faulty-nobreaker": "ef164202dc3450b11d8ed90c",
    "trace-closed-faulty-breaker": "2d6cc1d87423ee37d668edb7",
    "trace-under-bare-nobreaker": "bfe41816c2673f1983578204",
    "trace-under-bare-breaker": "6079ac206e5040605b2ce8e4",
    "trace-under-faulty-nobreaker": "7635b5798c97bba79ab66f07",
    "trace-under-faulty-breaker": "342d10b02b9258b2f6754733",
    "trace-over-bare-nobreaker": "881017e868bfe8cee2a1ba6b",
    "trace-over-bare-breaker": "e6ba9842e2cfd9f0762c0ee4",
    "trace-over-faulty-nobreaker": "793c64e911c8fadb9ad9f215",
    "trace-over-faulty-breaker": "d6895f43056573a1d89f2e93",
}


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
    _, load, device, breaker = cell.split("-")
    interval, deadline = LOADS[load]
    serving = ServingConfig(
        queue_capacity=24,
        deadline_us=deadline,
        arrival_interval_us=interval,
        max_attempts=3,
        breaker=BREAKER if breaker == "breaker" else None,
    )
    # Dead pages are taken from the trace itself, early enough to be
    # reached under overload too.
    work = _client_trace()
    dead = {work.pages[index] for index in (3, 60, 400)}
    manager = _stack(NUM_PAGES, CAPACITY, dead if device == "faulty" else None)
    n_w = manager.writer.n_w
    bg_writer = BackgroundWriter(manager, pages_per_round=8, batch_size=n_w)
    checkpointer = Checkpointer(
        manager, interval_us=OPTIONS.checkpoint_interval_us, batch_size=n_w
    )
    layer = ServingLayer(manager, serving)
    recorder = LatencyRecorder()
    metrics = run_trace(
        manager, work, options=OPTIONS, bg_writer=bg_writer,
        checkpointer=checkpointer, latencies=recorder, serving=layer,
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
        # Recorded while the layer also served transactions; a trace
        # completes none, and the key keeps the digests comparable.
        "transactions_completed": 0,
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
    _, load, device, breaker = cell.split("-")
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
    assert recorded["forwarded_latencies"][0] == summary["completed"]
    # Its CPU is ``cpu_us_per_op`` per execution, a failed one (requeued or
    # failed for good) included: no idle time, no stall.
    executed = summary["completed"] + recorded["requeued"] + summary["failed"]
    assert recorded["metrics"]["cpu_ticks"] == executed * to_ticks(OPTIONS.cpu_us_per_op)


def test_the_cells_requeue_fail_and_trip():
    faulty = [record(c) for c in CELLS if "-faulty-" in c]
    assert min(sum(r["requeued"] for r in faulty),
               sum(r["summary"]["failed"] for r in faulty)) > 0
    tripped = [c for c in CELLS if c.endswith("-breaker") and record(c)["breaker"][0]]
    assert len(tripped) >= 5


if __name__ == "__main__":
    if len(sys.argv) > 1:
        pprint.pprint(record(sys.argv[1]), width=120)
    else:
        print("GOLDEN: dict[str, str] = {")
        for name in CELLS:
            print(f'    "{name}": "{digest(record(name))}",')
        print("}")
