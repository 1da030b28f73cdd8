"""Runtime correctness tooling for the reproduction.

The simulator's hot paths are fast because of exactly the kind of state
the type system cannot check: lazily materialised virtual orders, mirror
sets shadowing descriptor bits, direct aliases of the translation vector.  :mod:`repro.analyze.sanitizer` keeps those invariants true at run
time: enabled with ``REPRO_SANITIZE=1`` or
``BufferPoolManager(sanitize=True)``, it cross-checks the buffer table,
descriptors, mirror sets, free list, and replacement-policy state after
every public bufferpool operation, and raises a structured
:class:`~repro.errors.SanitizerError` on the first violation.

The structural contracts (determinism, layering, encapsulation, where
faults may be caught) are pinned by census tests over the source tree,
``tests/test_*census.py``; see ``docs/architecture.md``, "Contracts pinned
by tests".
"""
