"""Differential battery: dict vs array translation backends.

The translation vector (``ArrayBufferTable``) is a pure representation
change — every observable behaviour of a manager stack must be
byte-identical over the hash table and the array: RunMetrics (buffer,
device, virtual time), the eviction order, residency and its iteration
order, and the WAL record stream.  This suite drives the full policy
battery (all registered policies, baseline and ACE, sanitizer on and off)
over the paper's MS workload through both backends and asserts exactly
that.

The hash table is selected the way production selects it — by the device's
address space exceeding ``ARRAY_SPACE_LIMIT`` — with the limit patched to 0
for the dict-side run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.bufferpool import table
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.engine.executor import ExecutionOptions, run_trace
from repro.policies.registry import PAPER_POLICIES, make_policy
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.workloads.synthetic import MS, generate_trace

from tests.bufferpool.conftest import TEST_PROFILE, wal_state
from tests.policies.classic import EVERY_POLICY

NUM_PAGES = 512
CAPACITY = 48
OPTIONS = ExecutionOptions(cpu_us_per_op=2.0)


def build(policy_name, variant, *, sanitize=False, with_wal=True):
    """One fresh stack over whichever backend the address-space rule picks."""
    clock = VirtualClock()
    device = SimulatedSSD(TEST_PROFILE, num_pages=NUM_PAGES, clock=clock)
    device.format_pages(range(NUM_PAGES))
    policy = make_policy(policy_name, CAPACITY)
    evictions: list[int] = []
    # Capture the eviction order *before* the manager binds the policy:
    # the managers cache bound policy methods at construction, so a
    # post-construction wrapper would miss the inlined paths.
    original_remove = policy.remove

    def recording_remove(page):
        evictions.append(page)
        return original_remove(page)

    policy.remove = recording_remove
    wal = WriteAheadLog(clock) if with_wal else None
    if variant == "baseline":
        manager = BufferPoolManager(
            CAPACITY, policy, device, wal=wal, sanitize=sanitize
        )
    else:
        config = ACEConfig.for_device(
            TEST_PROFILE, prefetch_enabled=(variant == "ace+pf")
        )
        manager = ACEBufferPoolManager(
            CAPACITY, policy, device, wal=wal, config=config,
            sanitize=sanitize,
        )
    return manager, evictions


def fingerprint(manager, metrics, evictions):
    """Everything observable about one finished run."""
    wal = manager.wal
    return {
        "buffer": dataclasses.asdict(metrics.buffer),
        "device": dataclasses.asdict(metrics.device),
        "elapsed_us": metrics.elapsed_us,
        "io_time_us": metrics.io_time_us,
        "cpu_time_us": metrics.cpu_time_us,
        "clock_us": manager.device.clock.now_us,
        "evictions": list(evictions),
        # Same pages AND the same iteration order (the array backend's
        # insertion-ordered mirror must track the dict exactly).
        "residency_order": manager.table.pages(),
        "dirty": sorted(manager.dirty_pages()),
        "pool_pressure": manager.pool_pressure,
        "wal": wal_state(wal),  # last: it flushes the log
    }


def run_one(policy_name, variant, backend, *, sanitize, ops, seed=7):
    manager, evictions = build(policy_name, variant, sanitize=sanitize)
    assert manager.table.backend == backend
    trace = generate_trace(MS, NUM_PAGES, ops, seed=seed)
    metrics = run_trace(manager, trace, options=OPTIONS)
    return fingerprint(manager, metrics, evictions)


def run_both(monkeypatch, policy_name, variant, *, sanitize, ops):
    """``(dict run, array run)`` of one stack on the same trace."""
    with monkeypatch.context() as patch:
        patch.setattr(table, "ARRAY_SPACE_LIMIT", 0)
        dict_run = run_one(
            policy_name, variant, "dict", sanitize=sanitize, ops=ops
        )
    array_run = run_one(
        policy_name, variant, "array", sanitize=sanitize, ops=ops
    )
    # The eviction-order check must compare something: an empty record
    # means the managers stopped calling the instance's recorder.
    assert dict_run["evictions"] and array_run["evictions"]
    return dict_run, array_run


@pytest.mark.parametrize("policy_name", EVERY_POLICY)
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_backends_agree(monkeypatch, policy_name, variant):
    """Fast-path battery: every policy, dict vs array, no sanitizer."""
    dict_run, array_run = run_both(
        monkeypatch, policy_name, variant, sanitize=False, ops=3000
    )
    assert dict_run == array_run


@pytest.mark.parametrize("policy_name", EVERY_POLICY)
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_backends_agree_sanitized(monkeypatch, policy_name, variant):
    """Same battery under the invariant sanitizer (per-request path), on a
    trace just long enough that every cell turns the pool over and writes
    a dirty victim back."""
    dict_run, array_run = run_both(
        monkeypatch, policy_name, variant, sanitize=True, ops=250
    )
    assert dict_run == array_run
    assert dict_run["buffer"]["misses"] > CAPACITY
    assert dict_run["buffer"]["dirty_evictions"] > 0


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
def test_backends_agree_with_prefetching(monkeypatch, policy_name):
    """ACE + prefetching exercises the reader/prefetch install path."""
    dict_run, array_run = run_both(
        monkeypatch, policy_name, "ace+pf", sanitize=False, ops=3000
    )
    assert dict_run == array_run
