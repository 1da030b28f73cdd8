"""Tests for multi-client interleaving."""

import pytest

from repro.engine.multiclient import interleave_traces
from repro.workloads.trace import Trace


def client(pages, writes=None, name="c"):
    if writes is None:
        writes = [False] * len(pages)
    return Trace(pages, writes, name=name)


class TestInterleaveTraces:
    def test_round_robin_order(self):
        merged = interleave_traces(
            [client([1, 2, 3]), client([10, 20, 30])], mode="round_robin"
        )
        assert merged.pages == [1, 10, 2, 20, 3, 30]

    def test_uneven_lengths(self):
        merged = interleave_traces(
            [client([1, 2, 3, 4]), client([10])], mode="round_robin"
        )
        assert merged.pages == [1, 10, 2, 3, 4]

    def test_preserves_every_request(self):
        a = client([1, 2], [True, False])
        b = client([3], [True])
        merged = interleave_traces([a, b], mode="random", seed=5)
        assert sorted(merged.pages) == [1, 2, 3]
        assert sum(merged.writes) == 2

    def test_per_client_order_preserved_random(self):
        a = client(list(range(50)))
        b = client(list(range(100, 150)))
        merged = interleave_traces([a, b], mode="random", seed=9)
        a_positions = [p for p in merged.pages if p < 100]
        b_positions = [p for p in merged.pages if p >= 100]
        assert a_positions == sorted(a_positions)
        assert b_positions == sorted(b_positions)

    def test_random_deterministic_by_seed(self):
        traces = [client([1, 2, 3]), client([4, 5, 6])]
        first = interleave_traces(traces, mode="random", seed=1)
        second = interleave_traces(traces, mode="random", seed=1)
        assert first.pages == second.pages

    def test_single_client_passthrough(self):
        merged = interleave_traces([client([7, 8])])
        assert merged.pages == [7, 8]

    def test_empty_client_list_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces([])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces([client([1])], mode="zigzag")

    def test_name(self):
        merged = interleave_traces([client([1]), client([2])])
        assert merged.name == "interleaved[2]"

    def test_client_ids_attribute_every_request(self):
        a = client([1, 2, 3])
        b = client([10, 20])
        merged = interleave_traces([a, b], mode="random", seed=4)
        assert merged.client_ids is not None
        assert len(merged.client_ids) == len(merged)
        by_client = {0: [], 1: []}
        for page, owner in zip(merged.pages, merged.client_ids):
            by_client[owner].append(page)
        assert by_client[0] == [1, 2, 3]
        assert by_client[1] == [10, 20]

    def test_round_robin_emits_client_ids(self):
        merged = interleave_traces(
            [client([1, 2]), client([10, 20])], mode="round_robin"
        )
        assert merged.client_ids == [0, 1, 0, 1]

    def test_interleaving_dilutes_locality(self):
        """Many clients scanning disjoint ranges destroy sequentiality."""
        clients = [
            client(list(range(base, base + 40))) for base in range(0, 400, 40)
        ]
        merged = interleave_traces(clients, mode="round_robin")
        sequential_steps = sum(
            1 for a, b in zip(merged.pages, merged.pages[1:]) if b == a + 1
        )
        assert sequential_steps < len(merged) * 0.1


class TestWeights:
    def test_remaining_weights_interleave_unequal_clients(self):
        # With "remaining" weights every outstanding request is equally
        # likely, so the short client should not be exhausted long before
        # the heavy one stops sharing the schedule.
        heavy = client(list(range(100, 300)))
        light = client(list(range(20)))
        merged = interleave_traces(
            [heavy, light], mode="random", seed=8, weights="remaining"
        )
        last_light = max(
            i for i, owner in enumerate(merged.client_ids) if owner == 1
        )
        assert last_light > len(merged) // 2

    def test_explicit_weights_skew_the_draw(self):
        a = client(list(range(100)))
        b = client(list(range(100, 200)))
        merged = interleave_traces(
            [a, b], mode="random", seed=8, weights=[9.0, 1.0]
        )
        # Client 0 is drawn 9x as often, so its work finishes well before
        # the midpoint of the merged schedule.
        last_a = max(
            i for i, owner in enumerate(merged.client_ids) if owner == 0
        )
        assert last_a < len(merged) * 0.75

    def test_weighted_draw_deterministic_by_seed(self):
        traces = [client(list(range(30))), client(list(range(50, 90)))]
        first = interleave_traces(
            traces, mode="random", seed=6, weights="remaining"
        )
        second = interleave_traces(
            traces, mode="random", seed=6, weights="remaining"
        )
        assert first.pages == second.pages
        assert first.client_ids == second.client_ids

    def test_weights_preserve_per_client_order(self):
        a = client(list(range(50)))
        b = client(list(range(100, 150)))
        merged = interleave_traces(
            [a, b], mode="random", seed=9, weights=[1.0, 3.0]
        )
        a_pages = [p for p in merged.pages if p < 100]
        b_pages = [p for p in merged.pages if p >= 100]
        assert a_pages == sorted(a_pages)
        assert b_pages == sorted(b_pages)

    def test_weights_require_random_mode(self):
        with pytest.raises(ValueError):
            interleave_traces(
                [client([1]), client([2])],
                mode="round_robin",
                weights="remaining",
            )

    def test_unknown_weights_spec_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces(
                [client([1])], mode="random", weights="proportional"
            )

    def test_weights_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces(
                [client([1]), client([2])], mode="random", weights=[1.0]
            )

    def test_non_positive_weight_for_nonempty_client_rejected(self):
        with pytest.raises(ValueError):
            interleave_traces(
                [client([1]), client([2])],
                mode="random",
                weights=[1.0, 0.0],
            )

    def test_zero_weight_allowed_for_empty_client(self):
        merged = interleave_traces(
            [client([1, 2]), client([])], mode="random", weights=[1.0, 0.0]
        )
        assert merged.pages == [1, 2]
        assert merged.client_ids == [0, 0]

