"""Verification engines: exhaustive correctness proofs over the simulator.

Where :mod:`repro.bench.chaos` *samples* the failure space with randomized
fault injection, this package *enumerates* it.
:mod:`repro.verify.crashpoints` walks every write boundary of a
representative trace, crashes there deterministically, recovers, and
audits the result byte-for-byte — including re-crashing inside recovery
itself.  :mod:`repro.verify.check` replays every policy x variant stack
under the invariant sanitizer and against its unsanitised twin.
"""
