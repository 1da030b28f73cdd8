"""Tests for the deterministic page->shard routers."""

import pytest

from repro.cluster.router import (
    HashShardRouter,
    MappedShardRouter,
    ShardRouter,
    StaleRouteError,
)


class TestHashShardRouter:
    def test_small_ints_route_modulo(self):
        router = HashShardRouter(4)
        for page in range(100):
            assert router.shard_of(page) == page % 4

    def test_deterministic_across_instances(self):
        a = HashShardRouter(3)
        b = HashShardRouter(3)
        assert [a.shard_of(p) for p in range(50)] == [
            b.shard_of(p) for p in range(50)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            HashShardRouter(0)

    def test_placement_name(self):
        assert HashShardRouter(2).placement == "hash"


class TestMappedShardRouter:
    def test_assignment_is_authoritative(self):
        router = MappedShardRouter([2, 0, 1, 2], 3)
        assert [router.shard_of(p) for p in range(4)] == [2, 0, 1, 2]

    def test_hash_fallback_outside_vector(self):
        router = MappedShardRouter([0, 0], 3)
        for page in (2, 7, 1000):
            assert router.shard_of(page) == hash(page) % 3

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError):
            MappedShardRouter([0, 3], 3)

    def test_placement_name(self):
        assert MappedShardRouter([0], 1).placement == "locality"


class TestSplit:
    def test_split_preserves_relative_order(self):
        router = HashShardRouter(2)
        pages = [0, 1, 2, 3, 4, 5, 2, 0]
        writes = [False, True, False, True, False, True, True, False]
        split = router.split(pages, writes)
        assert split[0] == ([0, 2, 4, 2, 0], [False, False, False, True, False])
        assert split[1] == ([1, 3, 5], [True, True, True])

    def test_split_covers_every_request(self):
        router = HashShardRouter(3)
        pages = list(range(30)) * 2
        writes = [p % 2 == 0 for p in pages]
        split = router.split(pages, writes)
        assert sum(len(sub_pages) for sub_pages, _ in split) == len(pages)

    def test_split_length_mismatch(self):
        with pytest.raises(ValueError):
            HashShardRouter(2).split([1, 2], [True])


def split_request_by_request(router, pages, writes):
    """The per-request loop ``split`` replaced, kept as its reference."""
    if len(pages) != len(writes):
        raise ValueError("length mismatch")
    split = [([], []) for _ in range(router.num_shards)]
    for page, is_write in zip(pages, writes):
        sub_pages, sub_writes = split[router.shard_of(page)]
        sub_pages.append(page)
        sub_writes.append(is_write)
    return split


ROUTERS = {
    "hash": lambda shards: HashShardRouter(shards),
    # A vector shorter than the page space: pages past it fall back to hash.
    "mapped": lambda shards: MappedShardRouter(
        [(7 * page) % shards for page in range(40)], shards
    ),
}


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("router_name", ROUTERS)
class TestSplitInBulk:
    """``split`` in bulk equals the per-request loop it replaced."""

    @pytest.mark.parametrize("length", [0, 1, 250])
    def test_matches_the_per_request_loop(self, router_name, shards, length):
        router = ROUTERS[router_name](shards)
        pages = [(page * 37) % 100 for page in range(length)]  # past the vector too
        writes = [page % 3 == 0 for page in pages]
        split = router.split(pages, writes)
        assert split == split_request_by_request(router, pages, writes)
        assert len(split) == shards
        # Any sequence in, lists out.
        assert router.split(tuple(pages), tuple(writes)) == split

    def test_length_mismatch_raises_before_routing(self, router_name, shards):
        router = ROUTERS[router_name](shards)
        with pytest.raises(ValueError, match="differ in length"):
            router.split([1, 2, 3], [True, False])
        with pytest.raises(ValueError):
            split_request_by_request(router, [1, 2, 3], [True, False])


class TestHashSplitOwners:
    """``HashShardRouter`` computes ``split``'s owners column in C; it must
    be ``shard_of`` page by page, negative and past-the-hash-modulus pages
    included (``hash(-1) == -2``, and ``hash`` wraps past ``2**61 - 1``)."""

    PAGES = [
        -1, -2, -3, -7, -(2**61), 0, 1, 5, 2**31, 2**61 - 2, 2**61 - 1,
        2**61, 2**64 + 3, 10**30,
    ]

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_split_equals_the_per_page_shard_of_split(self, shards):
        router = HashShardRouter(shards)
        pages = self.PAGES * 2
        writes = [index % 2 == 0 for index in range(len(pages))]
        assert router._owners(pages) == [router.shard_of(page) for page in pages]
        assert router.split(pages, writes) == split_request_by_request(
            router, pages, writes
        )

    def test_owners_hash_before_the_modulo(self):
        router = HashShardRouter(3)
        assert router.shard_of(-1) == hash(-1) % 3 != -1 % 3
        assert router.split([-1], [True])[hash(-1) % 3] == ([-1], [True])


class TestBaseRouter:
    def test_base_router_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ShardRouter(2).shard_of(1)


class TestRemapEpochs:
    def test_fresh_router_is_epoch_zero_node_zero(self):
        router = HashShardRouter(3)
        assert router.epoch == 0
        assert [router.node_of(s) for s in range(3)] == [0, 0, 0]

    def test_route_checks_the_epoch(self):
        router = HashShardRouter(2)
        assert router.route(5, epoch=0) == router.shard_of(5)
        with pytest.raises(StaleRouteError) as excinfo:
            router.route(5, epoch=1)
        assert excinfo.value.presented == 1
        assert excinfo.value.current == 0

    def test_with_failover_bumps_epoch_not_ownership(self):
        router = HashShardRouter(2)
        promoted = router.with_failover(1, 2)
        assert promoted.epoch == 1
        assert promoted.node_of(1) == 2
        assert promoted.node_of(0) == 0
        # Page ownership is unchanged; the old router is intact but stale.
        assert [promoted.shard_of(p) for p in range(20)] == [
            router.shard_of(p) for p in range(20)
        ]
        assert router.epoch == 0
        assert router.node_of(1) == 0
        with pytest.raises(StaleRouteError):
            promoted.route(5, epoch=0)

    def test_failover_chain_accumulates(self):
        router = HashShardRouter(2)
        twice = router.with_failover(0, 1).with_failover(1, 2)
        assert twice.epoch == 2
        assert twice.node_of(0) == 1
        assert twice.node_of(1) == 2

    def test_with_failover_validation(self):
        router = HashShardRouter(2)
        with pytest.raises(ValueError):
            router.with_failover(2, 1)
        with pytest.raises(ValueError):
            router.with_failover(0, -1)

    def test_node_of_validates_shard(self):
        with pytest.raises(ValueError):
            HashShardRouter(2).node_of(2)
