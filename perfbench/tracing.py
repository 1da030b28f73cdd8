"""Spans recorded from outside ``src/``: a tracer and proxies at public seams.

Nothing in ``repro`` knows it is being traced.  Three kinds of seam are
used, all public: objects handed to public constructors (a device shaped
like ``FaultyDevice``, a ``WriteAheadLog`` subclass, a ``Prefetcher``
subclass), public methods swapped on an instance (``manager.writer``,
``.evictor``, ``.reader``, ``.access``; ``bg_writer.run_round``;
``checkpointer.checkpoint``), and the harness's own calls.

A span is ``(name, start, end, parent, pass)``; spans live in memory until
:meth:`Tracer.write`.  A layer's *self time* is its span minus the part its
child spans cover.  Recording costs a few hundred nanoseconds per span,
charged to the parent's self time — ``trace.overhead_ratio`` says how much
that is in total.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.prefetch.base import Prefetcher

__all__ = [
    "Tracer",
    "TracedDevice",
    "TracedWAL",
    "TracedPrefetcher",
    "trace_manager",
]


class Tracer:
    """In-memory span store with a parent stack.

    Spans are five parallel integer columns, not one object each: a million
    small lists would hand the cyclic garbage collector enough work to show
    up inside the very spans being recorded.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.parent: list[int] = []
        self.span_pass: list[int] = []
        #: Open span indices; the ``-1`` sentinel is "no parent".
        self._open: list[int] = [-1]
        self.pass_id = 0
        #: Cleared while a stack is set up and warmed: proxies then pass
        #: calls straight through.
        self.recording = True

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        """Open a span; returns its index for :meth:`end`."""
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.span_pass.append(self.pass_id)
        self.end_ns.append(0)
        self._open.append(index)
        self.start_ns.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.end_ns[index] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, call: Callable, classify=None) -> Callable:
        """``call`` with a span named ``name`` around every invocation.

        The bookkeeping is inlined (not :meth:`begin`/:meth:`end`) so that
        nothing but the call itself sits between the two clock reads.
        ``classify``, if given, is called before the span opens and returns
        a function that is called after it closes and may return another
        name id for the span (hit or miss is only known afterwards).
        """
        name_id = self.name_id(name)
        names, starts, ends = self.name, self.start_ns, self.end_ns
        name_append, start_append, end_append = (
            names.append, starts.append, ends.append
        )
        parent_append, pass_append = self.parent.append, self.span_pass.append
        open_spans = self._open
        open_append, open_pop = open_spans.append, open_spans.pop
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            if not self.recording:
                return call(*args, **kwargs)
            renamer = classify() if classify is not None else None
            index = len(names)
            name_append(name_id)
            parent_append(open_spans[-1])
            pass_append(self.pass_id)
            end_append(0)
            open_append(index)
            start_append(clock())
            try:
                return call(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_pop()
                if renamer is not None:
                    renamed = renamer()
                    if renamed is not None:
                        names[index] = renamed

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block; yields the span's index."""
        index = self.begin(self.name_id(name))
        try:
            yield index
        finally:
            self.end(index)

    def seconds(self, index: int) -> float:
        return (self.end_ns[index] - self.start_ns[index]) / 1e9

    def totals(self, pass_id: int | None = None) -> dict[str, tuple[int, int, int]]:
        """``name -> (calls, total_ns, self_ns)``, optionally for one pass."""
        durations = [end - start for start, end in zip(self.start_ns, self.end_ns)]
        child_ns = [0] * len(durations)
        for duration, parent in zip(durations, self.parent):
            if parent >= 0:
                child_ns[parent] += duration
        totals: dict[str, tuple[int, int, int]] = {}
        for name_id, duration, children, span_pass in zip(
            self.name, durations, child_ns, self.span_pass
        ):
            if pass_id is not None and span_pass != pass_id:
                continue
            name = self.names[name_id]
            calls, total, self_ns = totals.get(name, (0, 0, 0))
            totals[name] = (
                calls + 1, total + duration, self_ns + duration - children
            )
        return totals

    def write(self, path: Path, header: dict[str, object]) -> None:
        """Write every span, column-wise, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(header)
        document.update(
            names=self.names, name=self.name, start_ns=self.start_ns,
            end_ns=self.end_ns, parent=self.parent, **{"pass": self.span_pass},
        )
        with path.open("w") as handle:
            json.dump(document, handle, separators=(",", ":"))


class TracedDevice:
    """A device proxy shaped like ``FaultyDevice``: composes, never edits.

    The four I/O methods record spans; everything else (``stats``,
    ``clock``, ``ftl``, ``num_pages``, ``format_pages``, ...) is the base
    device's.  Because the proxy is not a bare ``SimulatedSSD`` the manager
    takes its generic miss path, not the inlined one — the price of seeing
    device calls at all from outside (README.md, "cannot be seen").
    """

    def __init__(self, base, tracer: Tracer) -> None:
        self.base = base
        self.read_page = tracer.wrap("storage.device.read", base.read_page)
        self.read_batch = tracer.wrap("storage.device.read", base.read_batch)
        self.write_page = tracer.wrap("storage.device.write_batch", base.write_page)
        self.write_batch = tracer.wrap(
            "storage.device.write_batch", base.write_batch
        )

    def __getattr__(self, name: str):
        return getattr(self.base, name)


class TracedWAL(WriteAheadLog):
    """``WriteAheadLog`` with spans around ``log_update`` and ``flush``."""

    def __init__(self, clock, tracer: Tracer) -> None:
        super().__init__(clock)
        self.log_update = tracer.wrap("bufferpool.wal.log_update", super().log_update)
        self.flush = tracer.wrap("bufferpool.wal.flush", super().flush)


class TracedPrefetcher(Prefetcher):
    """Delegates to ``inner`` with a span around each of the three hooks."""

    name = "traced"

    def __init__(self, inner: Prefetcher, tracer: Tracer) -> None:
        self.inner = inner
        self.observe = tracer.wrap("prefetch.observe", inner.observe)
        self.on_miss = tracer.wrap("prefetch.on_miss", inner.on_miss)
        self.suggest = tracer.wrap("prefetch.suggest", inner.suggest)

    def suggest(self, page: int, n: int) -> list[int]:  # replaced per instance
        return self.inner.suggest(page, n)


def trace_manager(manager: BufferPoolManager, tracer: Tracer) -> None:
    """Swap the manager's public component methods for traced ones.

    ``access`` spans are named hit or miss after the fact, from the
    ``stats.misses`` delta across the call.
    """
    for component, methods in (
        ("writer", ("select_writeback_set", "flush")),
        ("evictor", ("select_eviction_set", "evict")),
        ("reader", ("select_prefetch_set", "fetch")),
    ):
        target = getattr(manager, component, None)
        if target is None:
            continue
        for method in methods:
            short = method.split("_")[0]
            setattr(
                target, method,
                tracer.wrap(f"core.{component}.{short}", getattr(target, method)),
            )

    miss_id = tracer.name_id("bufferpool.manager.miss")

    def classify():
        misses = manager.stats.misses
        return lambda: miss_id if manager.stats.misses != misses else None

    manager.access = tracer.wrap(
        "bufferpool.manager.hit", manager.access, classify=classify
    )
