"""Differential battery: dict vs array translation backends.

The translation vector is a pure representation change: every policy,
baseline and ACE, sanitizer on and off, must leave the same state (RunMetrics,
virtual and residency order, dirty set, payloads, the WAL) over the hash
table as over the array.  The array run is the fast-path battery's ``wal``
cell; the ``dict`` surrounding picks the hash table as production does.
"""

from __future__ import annotations

import pytest

from repro.policies.registry import PAPER_POLICIES

from tests.differential import ARMS, CAPACITY, SANITIZED, TRACE, Cell, run_cell, work_for
from tests.policies.classic import EVERY_POLICY


def both_backends(policy_name, variant, work, sanitize=False):
    """``(dict run, array run)`` of one stack on the same trace."""
    return (run_cell(Cell(policy_name, variant, surrounding, sanitize), ARMS[0], work)
            for surrounding in ("dict", "wal"))


@pytest.mark.parametrize("policy_name", EVERY_POLICY)
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_backends_agree(policy_name, variant):
    """Fast-path battery: every policy, dict vs array, no sanitizer."""
    dict_run, array_run = both_backends(policy_name, variant, work_for(policy_name, TRACE))
    assert dict_run == array_run


@pytest.mark.parametrize("policy_name", EVERY_POLICY)
@pytest.mark.parametrize("variant", ["baseline", "ace"])
def test_backends_agree_sanitized(policy_name, variant):
    """Same battery under the invariant sanitizer (per-request path), on a
    trace just long enough that every cell turns the pool over and writes
    a dirty victim back."""
    work = work_for(policy_name, SANITIZED)
    dict_run, array_run = both_backends(policy_name, variant, work, sanitize=True)
    assert dict_run == array_run
    assert dict_run["buffer"]["misses"] > CAPACITY
    assert dict_run["buffer"]["dirty_evictions"] > 0


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
def test_backends_agree_with_prefetching(policy_name):
    """ACE + prefetching exercises the reader/prefetch install path."""
    dict_run, array_run = both_backends(policy_name, "ace+pf", TRACE)
    assert dict_run == array_run
