"""The buffer table: page number -> frame id translation.

PostgreSQL keeps this mapping as a partitioned shared hash table; vmcache
and the array-translation line of work argue that at modern request rates
the hash probe itself is the bottleneck and a flat array indexed by page id
is the right structure whenever the address space is dense enough to
afford one slot per page.  The simulator offers both:

``BufferTable`` (``backend == "dict"``)
    The classic hash map.  Works for any (sparse, unbounded) page space.

``ArrayBufferTable`` (``backend == "array"``)
    A preallocated translation vector ``_slots`` with one entry per page
    in the address space; ``-1`` means "not resident".  A resident probe
    is a single C-level list index — no hashing, no boxing of the key.
    An insertion-ordered dict mirror (``_frame_of``) is maintained for
    iteration, length, and diagnostics so observable ordering (eviction
    sweeps, sanitizer scans, ``pages()``) is byte-identical to the dict
    backend.

Both backends expose ``_slots`` with the same hot-path contract — indexing
by a page in ``[0, probe_space)`` yields the frame id or ``-1`` — so the
buffer manager's request path is backend-agnostic.  The dict backend gets
this via a ``__missing__`` shim; its ``_slots`` *is* its ``_frame_of``.

Backend selection is automatic: array whenever the device's address space
is known and small enough to preallocate (:data:`ARRAY_SPACE_LIMIT`), dict
otherwise.  Only a direct :func:`make_table` caller can name a backend.
"""

from __future__ import annotations

__all__ = [
    "ARRAY_SPACE_LIMIT",
    "ArrayBufferTable",
    "BufferTable",
    "make_table",
    "resolve_backend",
]

#: Largest address space (in pages) the automatic selection will cover
#: with a translation vector; sparser/huger spaces fall back to the dict
#: backend.  2**22 slots is ~32 MB of pointer array — trivial next to the
#: payload store a pool of that size implies.
ARRAY_SPACE_LIMIT = 1 << 22

#: ``probe_space`` stand-in for the dict backend: any non-negative page id
#: may be probed directly (the ``__missing__`` shim answers -1).
_UNBOUNDED = (1 << 63) - 1


class _SlotDict(dict):
    """A dict whose missing keys read as ``-1``.

    This gives the hash backend the same hot-path shape as the translation
    vector: ``slots[page]`` is a frame id or ``-1``, resolved entirely in
    C.  Nothing is inserted on a miss (unlike ``defaultdict``).
    """

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return -1


class BufferTable:
    """Hash map from page number to the frame currently holding it."""

    backend = "dict"
    #: Pages addressable by the backend; ``None`` means unbounded (dict).
    address_space: int | None = None

    def __init__(self) -> None:
        self._frame_of: dict[int, int] = _SlotDict()
        #: Hot-path probe target; for the dict backend it is the mapping
        #: itself (see :class:`_SlotDict`).
        self._slots = self._frame_of
        #: Upper bound (exclusive) on pages that may be probed through
        #: ``_slots`` — callers gate ``0 <= page < probe_space`` and treat
        #: anything outside as a miss.
        self.probe_space: int = _UNBOUNDED

    def lookup(self, page: int) -> int | None:
        """Frame id holding ``page``, or ``None`` if not resident."""
        return self._frame_of.get(page)

    def insert(self, page: int, frame_id: int) -> None:
        if page in self._frame_of:
            raise ValueError(
                f"page {page} already mapped to frame {self._frame_of[page]}"
            )
        self._frame_of[page] = frame_id

    def delete(self, page: int) -> int:
        """Remove the mapping for ``page`` and return the freed frame id."""
        try:
            return self._frame_of.pop(page)
        except KeyError:
            raise KeyError(f"page {page} is not in the buffer table") from None

    def __contains__(self, page: int) -> bool:
        return page in self._frame_of

    def __len__(self) -> int:
        return len(self._frame_of)

    def pages(self) -> list[int]:
        return list(self._frame_of)


class ArrayBufferTable(BufferTable):
    """vmcache-style flat translation vector over a bounded address space."""

    backend = "array"

    def __init__(self, address_space: int) -> None:
        if address_space < 1:
            raise ValueError(
                f"address space must be positive: {address_space}"
            )
        self.address_space = address_space
        #: Insertion-ordered mirror of the resident set.  Iteration order
        #: (and therefore every order-sensitive consumer) matches the dict
        #: backend exactly; the vector below answers the per-request probes.
        self._frame_of: dict[int, int] = {}
        # A plain list beats array('q') for single-element reads in
        # CPython (no int re-boxing), and -1 is a shared small int.
        self._slots: list[int] = [-1] * address_space
        self.probe_space = address_space

    def lookup(self, page: int) -> int | None:
        if 0 <= page < self.address_space:
            frame_id = self._slots[page]
            if frame_id >= 0:
                return frame_id
        return None

    def insert(self, page: int, frame_id: int) -> None:
        if not 0 <= page < self.address_space:
            raise ValueError(
                f"page {page} outside the translation vector's address "
                f"space [0, {self.address_space})"
            )
        if self._slots[page] >= 0:
            raise ValueError(
                f"page {page} already mapped to frame {self._slots[page]}"
            )
        self._slots[page] = frame_id
        self._frame_of[page] = frame_id

    def delete(self, page: int) -> int:
        try:
            frame_id = self._frame_of.pop(page)
        except KeyError:
            raise KeyError(f"page {page} is not in the buffer table") from None
        self._slots[page] = -1
        return frame_id


def resolve_backend(
    address_space: int | None, backend: str | None = None
) -> str:
    """The translation backend that ``make_table`` would pick.

    An explicit ``backend`` wins; otherwise the automatic rule: array
    whenever the address space is known and within
    :data:`ARRAY_SPACE_LIMIT`.
    """
    if backend is None:
        if address_space is not None and 0 < address_space <= ARRAY_SPACE_LIMIT:
            return "array"
        return "dict"
    if backend not in ("array", "dict"):
        raise ValueError(
            f"unknown translation backend {backend!r}: "
            "expected 'array' or 'dict'"
        )
    if backend == "array" and (address_space is None or address_space < 1):
        raise ValueError(
            "the array translation backend needs a bounded address space "
            f"(got {address_space!r}); pass the device's num_pages"
        )
    return backend


def make_table(
    address_space: int | None = None, backend: str | None = None
) -> BufferTable:
    """Build the buffer table for an address space of ``address_space`` pages.

    ``backend`` forces a choice; by default the array backend is used
    whenever the space is bounded and affordable.
    """
    if resolve_backend(address_space, backend) == "array":
        assert address_space is not None  # resolve_backend guarantees it
        return ArrayBufferTable(address_space)
    return BufferTable()
