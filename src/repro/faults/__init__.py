"""Deterministic fault injection for the simulated I/O path.

The paper's argument — batched, deferred, concurrent write-backs are safe
and fast — only holds in production if the stack survives the failures
real SSDs throw: transient I/O errors, latency spikes, torn multi-page
batches, and dead blocks.  This package supplies the failure side of that
argument:

:class:`~repro.faults.plan.FaultPlan` / :class:`~repro.faults.plan.FaultInjector`
    A frozen, seeded fault schedule: per-operation rates for transient
    read/write errors, torn batches, and latency spikes, plus an explicit
    permanent-media page set.  Same plan + same operation sequence ⇒
    byte-identical fault schedule.

:class:`~repro.faults.device.FaultyDevice`
    Composes over :class:`~repro.storage.device.SimulatedSSD` without
    touching it; applies fault semantics and raises structured
    :class:`~repro.errors.IOFaultError` subclasses.  The crash-point
    engine's :class:`~repro.verify.crashpoints.CrashSchedule` is an injector
    too: it arms one power failure at one write boundary.

:class:`~repro.faults.retry.RetryPolicy`
    Bounded exponential backoff charged to the virtual clock, consulted by
    the buffer manager, background writer, checkpointer, and recovery.

The chaos harness that sweeps fault rates across policies and asserts the
end-to-end durability invariant lives in :mod:`repro.bench.chaos`
(``python -m repro chaos``); the crash-point engine, in
:mod:`repro.verify.crashpoints`.  Both drive
:class:`~repro.engine.executor.DurableRun`.
"""

from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultPlan",
    "FaultyDevice",
    "RetryPolicy",
]
