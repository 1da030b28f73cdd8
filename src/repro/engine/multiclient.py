"""Multi-client interleaving: merge per-client streams into one schedule.

The paper drives PostgreSQL with 20 concurrent pgbench/TPC-C users.  The
simulator executes a single serialised request stream (DESIGN.md discusses
why that preserves the I/O-path comparisons), but *which* pages interleave
still matters: concurrent clients dilute each other's locality in the
shared bufferpool.  This module builds such interleavings deterministically
so experiments can include the effect.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.workloads.trace import Trace

__all__ = ["interleave_traces"]


def interleave_traces(
    traces: Sequence[Trace],
    mode: str = "round_robin",
    seed: int = 42,
    name: str | None = None,
    weights: Sequence[float] | str | None = None,
) -> Trace:
    """Merge per-client traces into one interleaved trace.

    ``mode`` is ``"round_robin"`` (each client advances one request per
    turn, the tightest interleaving) or ``"random"`` (the next request
    comes from a randomly chosen client with work remaining — a fairer
    model of independent clients).

    ``weights`` (random mode only) controls the per-client draw:

    ``None``
        Uniform over clients with work remaining.  Note that a client with
        10x the requests then *dominates the tail* of the interleaving: the
        short clients exhaust early and the long client runs alone.
    ``"remaining"``
        Weight each client by its remaining request count, i.e. every
        outstanding *request* is equally likely.  Clients of unequal length
        interleave proportionally throughout instead of serialising at the
        end.
    a sequence of floats
        Fixed per-client weights (e.g. think-time ratios); must match
        ``len(traces)`` with positive entries for non-empty clients.

    The result carries a ``client_ids`` side-channel (parallel to
    ``pages``/``writes``) attributing each request to the index of the
    client trace that issued it, so the serving layer can bill sessions.
    """
    if not traces:
        raise ValueError("need at least one client trace")
    if mode not in ("round_robin", "random"):
        raise ValueError(f"unknown interleaving mode: {mode!r}")
    if weights is not None and mode != "random":
        raise ValueError("weights are only meaningful with mode='random'")
    fixed_weights: list[float] | None = None
    if isinstance(weights, str):
        if weights != "remaining":
            raise ValueError(f"unknown weights spec: {weights!r}")
    elif weights is not None:
        fixed_weights = [float(weight) for weight in weights]
        if len(fixed_weights) != len(traces):
            raise ValueError(
                f"weights ({len(fixed_weights)}) and traces ({len(traces)}) "
                "differ in length"
            )
        for index, trace in enumerate(traces):
            if len(trace) and fixed_weights[index] <= 0.0:
                raise ValueError(
                    f"client {index} has requests but non-positive weight "
                    f"{fixed_weights[index]}"
                )

    pages: list[int] = []
    writes: list[bool] = []
    client_ids: list[int] = []
    positions = [0] * len(traces)
    remaining = sum(len(trace) for trace in traces)
    rng = random.Random(seed)
    active = [index for index, trace in enumerate(traces) if len(trace)]

    while remaining:
        if mode == "round_robin":
            next_active = []
            for index in active:
                trace = traces[index]
                position = positions[index]
                pages.append(trace.pages[position])
                writes.append(trace.writes[position])
                client_ids.append(index)
                positions[index] = position + 1
                remaining -= 1
                if positions[index] < len(trace):
                    next_active.append(index)
            active = next_active
        else:
            if weights is None:
                index = active[rng.randrange(len(active))]
            else:
                if fixed_weights is not None:
                    draw_weights = [fixed_weights[i] for i in active]
                else:
                    draw_weights = [
                        float(len(traces[i]) - positions[i]) for i in active
                    ]
                index = rng.choices(active, weights=draw_weights)[0]
            trace = traces[index]
            position = positions[index]
            pages.append(trace.pages[position])
            writes.append(trace.writes[position])
            client_ids.append(index)
            positions[index] = position + 1
            remaining -= 1
            if positions[index] == len(trace):
                active.remove(index)

    label = name if name is not None else f"interleaved[{len(traces)}]"
    return Trace(pages, writes, name=label, client_ids=client_ids)

