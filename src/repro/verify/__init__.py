"""Verification engines: exhaustive correctness proofs over the simulator.

Where :mod:`repro.bench.chaos` *samples* the failure space with randomized
fault injection, this package *enumerates* it.  The first engine,
:mod:`repro.verify.crashpoints`, walks every write boundary of a
representative trace, crashes there deterministically, recovers, and
audits the result byte-for-byte — including re-crashing inside recovery
itself.
"""

from repro.verify.crashpoints import run_crashpoints, smoke_report

__all__ = ["run_crashpoints", "smoke_report"]
