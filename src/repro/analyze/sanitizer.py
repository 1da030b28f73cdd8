"""Runtime invariant sanitizer for the bufferpool.

PR 1's hot-path rewrites traded obviousness for speed: the manager keeps
O(1) mirror sets (``_dirty_set``/``_pinned_set``) shadowing the frame
pool's columns, policies expose lazily materialised virtual orders, and the
request path caches direct aliases of the table and the columns.  Each of
those is an invariant that a one-line bug can silently break — a stale
mirror entry changes *which pages CFLRU evicts* without failing a single
assertion.

This module is the dynamic counterpart to the census tests that pin the
source tree's structure: an :class:`InvariantSanitizer` attached to a
:class:`~repro.bufferpool.manager.BufferPoolManager` re-validates the full
invariant set after **every public operation** (``read_page``,
``write_page``, ``pin``, ``unpin``, ``flush_page``, ``flush_all``):

* pin counts are non-negative and pinned pages are never evicted;
* the dirty mirror set equals the frames' dirty bits exactly
  (and likewise the pinned mirror);
* the free list is disjoint from the buffer table and length-consistent;
* ``resident_pages()`` is consistent with frame occupancy, and the
  replacement policy tracks exactly the resident pages;
* ``eviction_order()`` leaves policy state bit-identical (snapshot /
  consume / compare) and yields resident, unpinned, duplicate-free pages;
* the policy's maintained fast paths (``peek`` / ``next_dirty`` /
  ``next_clean``) return exactly the reference prefixes derived from
  ``eviction_order()`` — the runtime teeth behind the incremental
  virtual-order engine;
* the WAL's columns (when a WAL is attached) stay the same length, its
  durable count is every record that left the buffer (no more, and no
  fewer unless a flush tore), and the last checkpoint is durable.

The first violation raises a structured
:class:`~repro.errors.SanitizerError` naming the invariant, the operation,
and the page/frame involved.

Enable it with ``REPRO_SANITIZE=1`` in the environment (picked up by every
manager built afterwards, including inside worker processes) or explicitly
with ``BufferPoolManager(..., sanitize=True)`` /
``StackConfig(..., sanitize=True)``.  It is a debugging tool: expect an
order-of-magnitude slowdown (quantified in ``docs/tuning.md``), which is
why it is opt-in and CI runs the test suite once with it on.
"""

from __future__ import annotations

import functools
import os
from typing import TYPE_CHECKING

from repro.errors import SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.bufferpool.manager import BufferPoolManager

__all__ = [
    "ENV_VAR",
    "InvariantSanitizer",
    "SanitizerError",
    "attach",
    "env_enabled",
    "reference_prefixes",
]

#: Environment switch: any value other than empty/0/false/no/off enables
#: the sanitizer for every manager constructed afterwards.
ENV_VAR = "REPRO_SANITIZE"

_FALSY = frozenset({"", "0", "false", "no", "off"})


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitised managers."""
    return os.environ.get(ENV_VAR, "").strip().lower() not in _FALSY


def _snapshot(value: object) -> object:
    """A deep, order-sensitive, hashable image of policy state.

    Cheaper than ``copy.deepcopy`` and directly comparable: dict order is
    captured (a pure ``eviction_order`` may not even reorder an
    ``OrderedDict``), sets compare unordered, unknown objects fall back to
    ``repr``.
    """
    if isinstance(value, (int, float, str, bytes, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return ("dict", tuple((k, _snapshot(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_snapshot(v) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_snapshot(v) for v in value))
    return ("repr", repr(value))


class InvariantSanitizer:
    """Validates a manager's cross-structure invariants after each op."""

    #: Prefix length compared between the maintained fast paths and the
    #: reference ``eviction_order()`` after every operation.
    FAST_PATH_PREFIX = 8

    #: Public manager operations wrapped by :func:`attach`.
    WRAPPED_OPS = (
        "read_page",
        "write_page",
        "pin",
        "unpin",
        "flush_page",
        "flush_all",
    )

    def __init__(self, manager: "BufferPoolManager") -> None:
        self.manager = manager
        #: Number of post-operation validations performed.
        self.checks_run = 0

    # ------------------------------------------------------------ validate

    def validate(self, operation: str, page: int | None = None) -> None:
        """Run every invariant check; raise ``SanitizerError`` on the first
        violation, naming ``operation`` as the triggering call."""
        self.checks_run += 1
        self._check_pins(operation)
        self._check_dirty_mirror(operation)
        self._check_free_list(operation)
        self._check_residency(operation)
        self._check_virtual_order(operation)
        self._check_fast_paths(operation)
        self._check_wal_index(operation)

    def assert_clean(self) -> None:
        """Validate outside any operation (e.g. at end of a test)."""
        self.validate("assert_clean")

    # ------------------------------------------------------------- checks

    def _check_pins(self, operation: str) -> None:
        manager = self.manager
        frame_of = manager.table._frame_of
        pool = manager.pool
        pinned_pages: set[int] = set()
        for frame_id, (page, pins) in enumerate(zip(pool.page_of, pool.pin_counts)):
            if pins < 0:
                raise SanitizerError(
                    "pin-count-negative", operation, f"pin count {pins}",
                    page=page if page >= 0 else None, frame=frame_id,
                )
            if page >= 0 and pins > 0:
                pinned_pages.add(page)
        for page in manager._pinned_set:
            if page not in frame_of:
                raise SanitizerError(
                    "pinned-evicted", operation,
                    "page is in the pinned mirror set but no longer "
                    "resident — a pinned page was evicted",
                    page=page,
                )
        if pinned_pages != manager._pinned_set:
            diff = pinned_pages.symmetric_difference(manager._pinned_set)
            sample = next(iter(diff))
            raise SanitizerError(
                "pinned-mirror", operation,
                f"pinned mirror set disagrees with the pin counts on "
                f"{sorted(diff)}",
                page=sample,
            )

    def _check_dirty_mirror(self, operation: str) -> None:
        manager = self.manager
        pool = manager.pool
        dirty_pages = {
            page for page, dirty in zip(pool.page_of, pool.dirty_bits)
            if page >= 0 and dirty
        }
        if dirty_pages != manager._dirty_set:
            diff = dirty_pages.symmetric_difference(manager._dirty_set)
            sample = next(iter(diff))
            raise SanitizerError(
                "dirty-mirror", operation,
                f"dirty mirror set disagrees with the dirty bits "
                f"on {sorted(diff)}",
                page=sample,
            )

    def _check_wal_index(self, operation: str) -> None:
        """The WAL's columns and its durable count must stay consistent.

        Recovery, ``records_since`` and ``redo_since`` all slice the
        columns up to ``durable_lsn``; columns of unequal length, a durable
        count that is not what left the buffer, or a checkpoint LSN past it
        would silently corrupt the redo window.  O(1) per op on purpose:
        the log grows with the run.
        """
        wal = self.manager.wal
        if wal is None:
            return
        logged, durable = wal.lsn, wal.durable_lsn
        if not len(wal._pages) == len(wal._payloads) == logged:
            raise SanitizerError(
                "wal-columns", operation,
                f"log columns hold {logged} kinds, {len(wal._pages)} pages "
                f"and {len(wal._payloads)} payloads",
            )
        # Everything that left the buffer is durable unless a flush tore
        # (which stops the machine).
        flushed = logged - wal._pending_records
        if not 0 <= durable <= flushed or (not wal.torn_flushes and durable != flushed):
            raise SanitizerError(
                "wal-durable", operation,
                f"durable_lsn {durable} is not the {flushed} records that "
                f"left the buffer of a {logged}-record log",
            )
        if not 0 <= wal.last_checkpoint_lsn <= durable:
            raise SanitizerError(
                "wal-checkpoint", operation,
                f"checkpoint LSN {wal.last_checkpoint_lsn} is past "
                f"durable_lsn {durable}",
            )

    def _check_free_list(self, operation: str) -> None:
        manager = self.manager
        pool = manager.pool
        frame_of = manager.table._frame_of
        free = pool._free
        if len(free) + len(frame_of) != pool.capacity:
            raise SanitizerError(
                "free-list-count", operation,
                f"{len(free)} free + {len(frame_of)} mapped != capacity "
                f"{pool.capacity}",
            )
        occupied = set(frame_of.values())
        for frame_id in free:
            if frame_id in occupied:
                raise SanitizerError(
                    "free-list-overlap", operation,
                    "frame is both on the free list and in the buffer table",
                    frame=frame_id,
                )
            if pool.page_of[frame_id] >= 0:
                raise SanitizerError(
                    "free-frame-in-use", operation,
                    "free-listed frame holds a page",
                    page=pool.page_of[frame_id], frame=frame_id,
                )

    def _check_residency(self, operation: str) -> None:
        manager = self.manager
        frame_of = manager.table._frame_of
        page_of = manager.pool.page_of
        for page, frame_id in frame_of.items():
            if page_of[frame_id] != page:
                raise SanitizerError(
                    "table-descriptor-mismatch", operation,
                    f"buffer table maps the page to frame {frame_id}, which "
                    f"holds page {page_of[frame_id]}",
                    page=page, frame=frame_id,
                )
        occupied = {page for page in page_of if page >= 0}
        if occupied != set(frame_of):
            diff = occupied.symmetric_difference(frame_of)
            raise SanitizerError(
                "resident-set", operation,
                f"frame occupancy disagrees with the buffer table on "
                f"{sorted(diff)}",
                page=next(iter(diff)),
            )
        tracked = set(manager.policy.pages())
        if tracked != set(frame_of):
            diff = tracked.symmetric_difference(frame_of)
            raise SanitizerError(
                "policy-membership", operation,
                f"replacement policy tracks a different page set than the "
                f"buffer table; disagreement on {sorted(diff)}",
                page=next(iter(diff)),
            )

    def _check_virtual_order(self, operation: str) -> None:
        manager = self.manager
        policy = manager.policy
        state = vars(policy)
        before = {
            name: _snapshot(value)
            for name, value in state.items()
            if name != "_view"
        }
        order = list(policy.eviction_order())
        after = {
            name: _snapshot(value)
            for name, value in state.items()
            if name != "_view"
        }
        if before != after:
            changed = sorted(
                name for name in before if before[name] != after.get(name)
            )
            raise SanitizerError(
                "virtual-order-purity", operation,
                f"eviction_order() mutated policy state: {changed} "
                f"({type(policy).__name__})",
            )
        resident = manager.table._frame_of
        seen: set[int] = set()
        for page in order:
            if page in seen:
                raise SanitizerError(
                    "virtual-order-duplicates", operation,
                    "eviction_order() yielded the page twice",
                    page=page,
                )
            seen.add(page)
            if page not in resident:
                raise SanitizerError(
                    "virtual-order-membership", operation,
                    "eviction_order() yielded a non-resident page",
                    page=page,
                )
            if page in manager._pinned_set:
                raise SanitizerError(
                    "virtual-order-pinned", operation,
                    "eviction_order() yielded a pinned page",
                    page=page,
                )

    def _check_fast_paths(self, operation: str) -> None:
        """The maintained bulk reads must match the reference prefixes.

        ``peek``/``next_dirty``/``next_clean`` are each compared against
        :func:`reference_prefixes`, which derives the same prefix directly
        from ``eviction_order()`` — the definitional contract of the
        incremental virtual-order engine (``_check_virtual_order`` already
        ran, so the reference prefixes themselves are trustworthy here).
        """
        policy = self.manager.policy
        k = self.FAST_PATH_PREFIX
        for label, expected in reference_prefixes(policy, k).items():
            got = getattr(policy, label)(k)
            if got != expected:
                raise SanitizerError(
                    f"fast-path-{label}", operation,
                    f"{type(policy).__name__}.{label}({k}) returned {got}, "
                    f"reference order gives {expected}",
                    page=next(
                        iter(set(got).symmetric_difference(expected)), None
                    ),
                )


def reference_prefixes(policy, n: int) -> dict[str, list[int]]:
    """What ``policy.peek(n)``, ``next_dirty(n)`` and ``next_clean(n)``
    must return: the first ``n`` pages of its ``eviction_order()``, of the
    dirty pages in it and of the clean ones, keyed by method name.

    The one reference copy of the derivation, spelled as one plain pass
    so that it shares no code with the policies' own bulk reads.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative: {n}")
    is_dirty = policy._view.is_dirty
    order: list[int] = []
    dirty: list[int] = []
    clean: list[int] = []
    if n:
        for page in policy.eviction_order():
            if len(order) < n:
                order.append(page)
            same_state = dirty if is_dirty(page) else clean
            if len(same_state) < n:
                same_state.append(page)
            if len(dirty) == n and len(clean) == n:
                break
    return {"peek": order, "next_dirty": dirty, "next_clean": clean}


def _wrap_operation(sanitizer: InvariantSanitizer, name: str, original):
    """A bound-method wrapper: run the op, then validate the full state."""

    @functools.wraps(original)
    def checked(*args: object, **kwargs: object) -> object:
        result = original(*args, **kwargs)
        page = args[0] if args and isinstance(args[0], int) else None
        sanitizer.validate(name, page=page)
        return result

    return checked


def attach(manager: "BufferPoolManager") -> InvariantSanitizer:
    """Attach a sanitizer to ``manager``, wrapping its public operations.

    Idempotent: re-attaching returns the existing sanitizer.  The wrappers
    are instance attributes, so the class (and every unsanitised manager)
    keeps its zero-overhead fast path.
    """
    existing = getattr(manager, "sanitizer", None)
    if existing is not None:
        return existing
    sanitizer = InvariantSanitizer(manager)
    for name in InvariantSanitizer.WRAPPED_OPS:
        original = getattr(manager, name)
        setattr(manager, name, _wrap_operation(sanitizer, name, original))
    manager.sanitizer = sanitizer
    return sanitizer
