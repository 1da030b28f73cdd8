"""Deterministic page→shard routing: the cluster's single source of truth.

Every sharded structure in the repo — the in-process
:class:`~repro.cluster.partitioned.PartitionedBufferPoolManager`, the
process-parallel cluster engine, the placement optimizer — must agree on
which shard owns a page, or replays stop being comparable.  This module
owns that mapping.  Routers are pure, deterministic functions of their
construction arguments: the same router routes the same page to the same
shard in every process, which is what makes the parallel cluster replay
byte-identical to the serial one.

Two routers cover the design space the bench sweeps:

* :class:`HashShardRouter` — the classic ``hash(page) % num_shards``
  slice.  Placement-free, balance comes from the hash.
* :class:`MappedShardRouter` — an explicit page→shard assignment vector,
  produced by :mod:`repro.cluster.placement`'s optimizers; pages outside
  the vector fall back to hash routing so the router is total.

Routers are **epoch-stamped**: every remap — a shard failing over to a
replica node — produces a *new* router with ``epoch + 1``, and
:meth:`ShardRouter.route` refuses a caller presenting a stale epoch with a
loud :class:`StaleRouteError` rather than silently routing to the old
owner.  The epoch chain is what lets the replicated cluster engine prove
that every post-failover access went through the remapped table (see
docs/architecture.md "Replication & failover").

Deliberately free of ``repro`` imports (including ``repro.errors`` —
:class:`StaleRouteError` lives here): the split is duck-typed over
parallel ``pages``/``writes`` sequences, so anything may import this
module without dragging the whole cluster stack (or an import cycle)
with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, repeat
from operator import eq, mod

__all__ = [
    "ShardRouter",
    "HashShardRouter",
    "MappedShardRouter",
    "StaleRouteError",
]


class StaleRouteError(RuntimeError):
    """A caller routed with an epoch the router has since moved past.

    Raised by :meth:`ShardRouter.route` when ``epoch`` does not match the
    router's current epoch.  Silently honouring a stale epoch would send
    the access to a node that no longer owns the page (or is dead) —
    exactly the failure mode remap epochs exist to surface.
    """

    def __init__(self, presented: int, current: int) -> None:
        self.presented = presented
        self.current = current
        super().__init__(
            f"stale routing epoch {presented} (router is at epoch "
            f"{current}); re-fetch the router before routing"
        )


class ShardRouter:
    """Base router: a total, deterministic ``page -> shard`` function.

    Every router also tracks the cluster's *remap state*: an ``epoch``
    counter bumped by every topology change and a per-shard primary-node
    map (which replica-group member currently serves each shard; node 0
    until a failover promotes someone else).  Remaps never mutate a
    router in place — :meth:`with_failover` returns a *new* router at
    ``epoch + 1``, so holders of the old object keep a consistent but
    provably stale view that :meth:`route` rejects.
    """

    #: Human-readable placement scheme name, recorded in bench epochs.
    placement = "base"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"need at least one shard: {num_shards}")
        self.num_shards = num_shards
        #: Remap generation: 0 at construction, +1 per topology change.
        self.epoch = 0
        self._primary_node = [0] * num_shards

    def shard_of(self, page: int) -> int:
        raise NotImplementedError

    # ------------------------------------------------------------- remaps

    def route(self, page: int, epoch: int) -> int:
        """Epoch-checked routing: the shard owning ``page``, or a loud
        :class:`StaleRouteError` if ``epoch`` is not the router's current
        one (the caller is holding a pre-remap view of the cluster)."""
        if epoch != self.epoch:
            raise StaleRouteError(presented=epoch, current=self.epoch)
        return self.shard_of(page)

    def node_of(self, shard: int) -> int:
        """The replica-group node currently serving ``shard``."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} outside [0, {self.num_shards})"
            )
        return self._primary_node[shard]

    def _spawn(self) -> "ShardRouter":
        """A fresh router with this router's routing function (subclass
        hook for :meth:`with_failover`)."""
        raise NotImplementedError

    def with_failover(self, shard: int, node: int) -> "ShardRouter":
        """A new router (``epoch + 1``) with ``shard`` served by ``node``.

        This is the failover remap: the shard's page ownership is
        unchanged — the same pages route to the same shard — but the
        serving node moved to a promoted replica.
        """
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} outside [0, {self.num_shards})"
            )
        if node < 0:
            raise ValueError(f"node cannot be negative: {node}")
        remapped = self._spawn()
        remapped.epoch = self.epoch + 1
        remapped._primary_node = list(self._primary_node)
        remapped._primary_node[shard] = node
        return remapped

    # ------------------------------------------------------------- splits

    def split(
        self, pages: Sequence[int], writes: Sequence[bool]
    ) -> list[tuple[list[int], list[bool]]]:
        """Partition a request stream into per-shard subtraces.

        Returns one ``(pages, writes)`` pair per shard (index = shard
        id).  Each subtrace preserves the relative order of its requests,
        so replaying shard ``i``'s subtrace is exactly what shard ``i``
        would have observed serving the interleaved stream.  In bulk: the
        owners column from :meth:`_owners`, then one ``compress`` per shard
        and column.
        """
        if len(pages) != len(writes):
            raise ValueError(
                f"pages ({len(pages)}) and writes ({len(writes)}) differ "
                "in length"
            )
        owners = self._owners(pages)
        split: list[tuple[list[int], list[bool]]] = []
        for shard in range(self.num_shards):
            owned = list(map(eq, owners, repeat(shard)))
            split.append((list(compress(pages, owned)), list(compress(writes, owned))))
        return split

    def _owners(self, pages: Sequence[int]) -> list[int]:
        """The owning shard of each page, in order (subclass hook for
        :meth:`split`): one ``shard_of`` per page unless overridden."""
        return list(map(self.shard_of, pages))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class HashShardRouter(ShardRouter):
    """Hash-sliced page space: ``hash(page) % num_shards``.

    For the integer pages the simulator uses this is effectively
    ``page % num_shards`` (CPython hashes small ints to themselves), and
    it is stable across processes — integer hashing does not depend on
    ``PYTHONHASHSEED`` — which the parallel replay relies on.
    """

    placement = "hash"

    def shard_of(self, page: int) -> int:
        return hash(page) % self.num_shards

    def _owners(self, pages: Sequence[int]) -> list[int]:
        # ``shard_of`` over the column in C: no frame per page.
        return list(map(mod, map(hash, pages), repeat(self.num_shards)))

    def _spawn(self) -> "HashShardRouter":
        return HashShardRouter(self.num_shards)


class MappedShardRouter(ShardRouter):
    """Explicit page→shard assignment, hash fallback outside the map.

    ``assignment[page]`` is the owning shard for every page the
    placement optimizer saw; pages beyond the vector (a trace can touch
    pages the optimization trace never did) fall back to hash routing so
    the router stays total.
    """

    placement = "locality"

    def __init__(self, assignment: Sequence[int], num_shards: int) -> None:
        super().__init__(num_shards)
        assignment = list(assignment)
        for page, shard in enumerate(assignment):
            if not 0 <= shard < num_shards:
                raise ValueError(
                    f"assignment[{page}] = {shard} outside "
                    f"[0, {num_shards})"
                )
        self.assignment = assignment
        self._size = len(assignment)

    def shard_of(self, page: int) -> int:
        if 0 <= page < self._size:
            return self.assignment[page]
        return hash(page) % self.num_shards

    def _spawn(self) -> "MappedShardRouter":
        return MappedShardRouter(self.assignment, self.num_shards)

    def __repr__(self) -> str:
        return (
            f"MappedShardRouter(num_shards={self.num_shards}, "
            f"mapped_pages={self._size})"
        )
