"""Shard placement as graph partitioning: minimize cut edges under balance.

Hash routing balances load but is blind to locality: two pages touched by
every transaction of one warehouse land on different shards half the
time, and each such transaction becomes a cross-shard coordination.  The
alternative — the districting formulation — is to build the *co-access
graph* of the workload (nodes = pages weighted by access count, edges
weighted by how often two pages are touched together) and partition it
into ``num_shards`` districts minimizing the total weight of cut edges
subject to a balance constraint, exactly the
partition-a-graph-to-minimize-cut-edges problem the Hess-model
districting literature solves.  Solving it exactly is NP-hard; this
module ships the deterministic greedy + local-refinement heuristic the
bench sweeps (seed by affinity in heavy-first order, then first-choice
hill-climb on move gains), which is enough to strictly beat hash
placement on any workload with transaction locality.

Everything here is pure and deterministic: dict/list structures only,
iteration in sorted or insertion order, no RNG, no ``repro`` imports (the
graph builder is duck-typed over a ``pages`` sequence).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = [
    "CoAccessGraph",
    "coaccess_from_trace",
    "hash_placement",
    "locality_placement",
    "cut_weight",
    "imbalance",
    "placement_report",
]

@dataclass
class CoAccessGraph:
    """Weighted page co-access graph.

    ``weights[p]`` is the access count of page ``p`` (the node's load);
    ``adjacency[p][q]`` the number of times ``p`` and ``q`` were
    co-accessed (symmetric).  Pages never co-accessed with anything still
    appear in ``weights`` so the partitioner places them.
    """

    num_pages: int
    weights: dict[int, int] = field(default_factory=dict)
    adjacency: dict[int, dict[int, int]] = field(default_factory=dict)

    def add_access(self, page: int, count: int = 1) -> None:
        self.weights[page] = self.weights.get(page, 0) + count

    def add_edge(self, a: int, b: int, weight: int = 1) -> None:
        if a == b:
            return
        self.adjacency.setdefault(a, {})[b] = (
            self.adjacency.get(a, {}).get(b, 0) + weight
        )
        self.adjacency.setdefault(b, {})[a] = (
            self.adjacency.get(b, {}).get(a, 0) + weight
        )

    @property
    def total_edge_weight(self) -> int:
        return sum(
            weight
            for neighbours in self.adjacency.values()
            for weight in neighbours.values()
        ) // 2

    @property
    def total_node_weight(self) -> int:
        return sum(self.weights.values())


def coaccess_from_trace(
    pages: Sequence[int],
    num_pages: int,
    client_ids: Sequence[int] | None = None,
    window: int = 8,
) -> CoAccessGraph:
    """Build the co-access graph of a page-request stream.

    Affinity is *temporal*: two pages accessed within ``window`` requests
    of each other are co-accessed.  When ``client_ids`` attributes
    requests to client sessions, the window runs per client — requests
    interleaved from unrelated clients carry no affinity, which is the
    whole point of recording the side-channel.
    """
    if window < 2:
        raise ValueError(f"window must cover at least 2 requests: {window}")
    graph = CoAccessGraph(num_pages=num_pages)
    recent: dict[int, list[int]] = {}
    for index, page in enumerate(pages):
        graph.add_access(page)
        client = client_ids[index] if client_ids is not None else 0
        tail = recent.setdefault(client, [])
        for other in tail:
            graph.add_edge(page, other)
        tail.append(page)
        if len(tail) >= window:
            del tail[0]
    return graph


# ---------------------------------------------------------------- placement


def hash_placement(num_pages: int, num_shards: int) -> list[int]:
    """The assignment vector hash routing induces (the baseline)."""
    if num_shards < 1:
        raise ValueError(f"need at least one shard: {num_shards}")
    return [hash(page) % num_shards for page in range(num_pages)]


def locality_placement(
    graph: CoAccessGraph,
    num_shards: int,
    balance_slack: float = 0.10,
    refinement_passes: int = 4,
) -> list[int]:
    """Greedy cut-edge-minimizing assignment under a balance constraint.

    The Hess-style formulation: assign each page (node) to one of
    ``num_shards`` districts so that no district's node weight exceeds
    ``(1 + balance_slack)`` times the even share, minimizing the weight
    of edges between districts.  The heuristic:

    1. **Greedy seeding** — place pages in descending weight order (the
       heavy hitters anchor districts); each page goes to the shard it
       has the strongest affinity to (edge weight into already-placed
       neighbours) among shards with capacity left, falling back to the
       lightest shard when it has no placed neighbours.
    2. **First-choice refinement** — repeatedly sweep all pages in page
       order, moving any page whose best alternative shard strictly
       reduces the cut without breaking balance; stop after
       ``refinement_passes`` sweeps or the first sweep with no moves.

    Two seedings are refined and the lower-cut result wins: the greedy
    affinity seeding above, and the hash assignment itself.  Refinement
    only ever removes cut weight, so whenever the slack covers hash
    placement's own imbalance the result is never worse than hash — and
    strictly better as soon as a single improving move exists.

    Pages the graph never saw get hash placement (they carry no load and
    no edges, so any assignment is optimal for them) — the returned
    vector is total over ``[0, num_pages)``.  Fully deterministic: ties
    break on lowest shard load, then lowest shard id, and the greedy
    candidate wins score ties against the hash-seeded one.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard: {num_shards}")
    if balance_slack < 0.0:
        raise ValueError(f"balance slack cannot be negative: {balance_slack}")
    assignment = hash_placement(graph.num_pages, num_shards)
    if num_shards == 1 or not graph.weights:
        return assignment

    total = graph.total_node_weight
    # Per-shard load ceiling: the even share stretched by the slack.  The
    # max() keeps the bound feasible when one page outweighs the share.
    heaviest = max(graph.weights.values())
    bound = max(heaviest, (total * (1.0 + balance_slack)) / num_shards)

    def affinity(placed: dict[int, int], page: int) -> list[int]:
        scores = [0] * num_shards
        for neighbour, weight in graph.adjacency.get(page, {}).items():
            shard = placed.get(neighbour)
            if shard is not None:
                scores[shard] += weight
        return scores

    def refine(placed: dict[int, int], loads: list[int]) -> None:
        for _ in range(max(0, refinement_passes)):
            moved = 0
            for page in sorted(placed):
                weight = graph.weights[page]
                current = placed[page]
                scores = affinity(placed, page)
                # Gain of moving = affinity gained at the target minus
                # affinity lost at the source (the page's own edges are
                # the only terms that change).
                best_target = current
                best_gain = 0
                for shard in range(num_shards):
                    if shard == current:
                        continue
                    if loads[shard] + weight > bound:
                        continue
                    gain = scores[shard] - scores[current]
                    if gain > best_gain:
                        best_gain = gain
                        best_target = shard
                if best_target != current:
                    placed[page] = best_target
                    loads[current] -= weight
                    loads[best_target] += weight
                    moved += 1
            if not moved:
                break

    def placed_cut(placed: dict[int, int]) -> int:
        cut = 0
        for page, neighbours in graph.adjacency.items():
            shard = placed[page]
            for neighbour, weight in neighbours.items():
                if neighbour > page and placed[neighbour] != shard:
                    cut += weight
        return cut

    # Candidate 1: greedy affinity seeding, heavy-first, page id as the
    # deterministic tie-break.
    greedy_loads = [0] * num_shards
    greedy: dict[int, int] = {}
    order = sorted(graph.weights, key=lambda p: (-graph.weights[p], p))
    for page in order:
        weight = graph.weights[page]
        scores = affinity(greedy, page)
        # Best affinity among shards with room; ties to the lightest
        # shard so seeding cannot collapse onto one district.
        best = min(
            range(num_shards),
            key=lambda s: (
                greedy_loads[s] + weight > bound,  # feasible shards first
                -scores[s],
                greedy_loads[s],
                s,
            ),
        )
        greedy[page] = best
        greedy_loads[best] += weight
    refine(greedy, greedy_loads)

    # Candidate 2: refine hash placement in place.  Only eligible when
    # it lands within the balance bound (it starts wherever hash put it;
    # with a slack covering hash's imbalance it always qualifies).
    hashed = {page: assignment[page] for page in graph.weights}
    hashed_loads = [0] * num_shards
    for page, shard in hashed.items():
        hashed_loads[shard] += graph.weights[page]
    refine(hashed, hashed_loads)

    winner = greedy
    if max(hashed_loads) <= bound and placed_cut(hashed) < placed_cut(greedy):
        winner = hashed
    for page, shard in winner.items():
        assignment[page] = shard
    return assignment


# ----------------------------------------------------------------- scoring


def cut_weight(graph: CoAccessGraph, assignment: Sequence[int]) -> int:
    """Total weight of edges whose endpoints live on different shards."""
    total = 0
    for page, neighbours in graph.adjacency.items():
        shard = assignment[page]
        for neighbour, weight in neighbours.items():
            if neighbour > page and assignment[neighbour] != shard:
                total += weight
    return total


def imbalance(
    graph: CoAccessGraph, assignment: Sequence[int], num_shards: int
) -> float:
    """Max shard load over the even share (1.0 = perfectly balanced)."""
    if num_shards < 1:
        raise ValueError(f"need at least one shard: {num_shards}")
    loads = [0] * num_shards
    for page, weight in graph.weights.items():
        loads[assignment[page]] += weight
    total = sum(loads)
    if total == 0:
        return 1.0
    return max(loads) / (total / num_shards)


def placement_report(
    graph: CoAccessGraph, assignment: Sequence[int], num_shards: int
) -> dict[str, float]:
    """The (cut, imbalance) coordinates of one placement — a Pareto point."""
    cut = cut_weight(graph, assignment)
    total = graph.total_edge_weight
    return {
        "cut_edges": float(cut),
        "cut_fraction": (cut / total) if total else 0.0,
        "imbalance": imbalance(graph, assignment, num_shards),
    }
