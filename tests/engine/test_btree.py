"""Tests for the B-tree index substrate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BTreeIndex
from repro.bufferpool.database import Database


def make_index(num_keys=10_000, fanout=10, leaf_capacity=10):
    database = Database()
    index = BTreeIndex(
        database, "idx", num_keys=num_keys, fanout=fanout,
        leaf_capacity=leaf_capacity,
    )
    return index, database


class TestShape:
    def test_small_tree_is_single_page(self):
        index, _ = make_index(num_keys=5, leaf_capacity=10)
        assert index.shape.height == 1
        assert index.shape.total_pages == 1

    def test_levels_shrink_by_fanout(self):
        index, _ = make_index(num_keys=10_000, fanout=10, leaf_capacity=10)
        # 1000 leaves -> 100 -> 10 -> 1 root.
        assert index.shape.pages_per_level == (1, 10, 100, 1000)
        assert index.shape.height == 4

    def test_total_pages_allocated_in_database(self):
        index, database = make_index()
        assert index.relation.num_pages == index.shape.total_pages
        assert database.total_pages == index.shape.total_pages

    def test_validation(self):
        database = Database()
        with pytest.raises(ValueError):
            BTreeIndex(database, "bad", num_keys=0)
        with pytest.raises(ValueError):
            BTreeIndex(database, "bad2", num_keys=10, fanout=1)


class TestPaths:
    def test_path_starts_at_root_ends_at_leaf(self):
        index, _ = make_index()
        path = index.path_to_key(1234)
        assert path[0] == index.root_page()
        assert path[-1] == index.leaf_of_key(1234)
        assert len(path) == index.shape.height

    def test_nearby_keys_share_upper_path(self):
        index, _ = make_index()
        a = index.path_to_key(100)
        b = index.path_to_key(105)
        assert a[:-1] == b[:-1] or a == b  # same leaf or same internals

    def test_distant_keys_diverge(self):
        index, _ = make_index()
        a = index.path_to_key(0)
        b = index.path_to_key(9999)
        assert a[-1] != b[-1]
        assert a[1] != b[1]  # different level-1 subtrees

    def test_key_bounds_checked(self):
        index, _ = make_index(num_keys=100)
        with pytest.raises(IndexError):
            index.path_to_key(100)
        with pytest.raises(IndexError):
            index.leaf_of_key(-1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 9999))
    def test_paths_stay_inside_relation(self, key):
        index, _ = make_index()
        for page in index.path_to_key(key):
            assert index.relation.base_page <= page < index.relation.end_page


class TestAccessPatterns:
    def test_lookup_is_read_only(self):
        index, _ = make_index()
        requests = index.lookup(42)
        assert all(not r.is_write for r in requests)
        assert len(requests) == index.shape.height

    def test_insert_dirties_leaf(self):
        index, _ = make_index()
        requests = index.insert(42)
        assert requests[-1].is_write
        assert requests[-1].page == index.leaf_of_key(42)

    def test_insert_split_dirties_neighbour_and_parent(self):
        index, _ = make_index()
        rng = random.Random(0)
        requests = index.insert(42, split_probability=1.0, rng=rng)
        writes = [r.page for r in requests if r.is_write]
        assert len(writes) == 3  # leaf, neighbour, parent

    def test_range_scan_walks_leaves(self):
        index, _ = make_index()
        requests = index.range_scan(0, 55)
        leaf_reads = requests[index.shape.height - 1:]
        pages = [r.page for r in leaf_reads]
        assert pages == sorted(pages)
        # 55 keys at 10/leaf starting at key 0 -> 6 leaves.
        assert len(pages) == 6

    def test_range_scan_clamped_at_end(self):
        index, _ = make_index(num_keys=100, leaf_capacity=10)
        requests = index.range_scan(95, 1000)
        assert all(
            index.relation.base_page <= r.page < index.relation.end_page
            for r in requests
        )

    def test_scan_validation(self):
        index, _ = make_index()
        with pytest.raises(ValueError):
            index.range_scan(0, 0)

    def test_root_is_hottest_page(self):
        """Every lookup touches the root: the B-tree's natural skew."""
        index, _ = make_index()
        rng = random.Random(1)
        counts: dict[int, int] = {}
        for _ in range(500):
            for request in index.lookup(rng.randrange(10_000)):
                counts[request.page] = counts.get(request.page, 0) + 1
        assert max(counts, key=counts.__getitem__) == index.root_page()
        assert counts[index.root_page()] == 500


class TestBufferpoolIntegration:
    def test_index_traffic_through_ace(self):
        """Index lookups + inserts run through the bufferpool; the hot
        upper levels stay cached while ACE batches leaf write-backs."""
        from repro.core.ace import ACEBufferPoolManager
        from repro.core.config import ACEConfig
        from repro.policies.lru import LRUPolicy
        from repro.storage.profiles import PCIE_SSD

        database = Database()
        index = BTreeIndex(database, "idx", num_keys=50_000, fanout=64,
                           leaf_capacity=64)
        device = database.create_device(PCIE_SSD)
        manager = ACEBufferPoolManager(
            60, LRUPolicy(), device, config=ACEConfig(n_w=8, n_e=8)
        )
        rng = random.Random(2)
        for _ in range(800):
            key = rng.randrange(50_000)
            operations = (
                index.insert(key, split_probability=0.05, rng=rng)
                if rng.random() < 0.4 else index.lookup(key)
            )
            for request in operations:
                manager.access(request.page, request.is_write)
        # The root never left the pool after its first load.
        assert manager.contains(index.root_page())
        # Leaf write-backs were batched.
        assert manager.device.stats.largest_write_batch > 1
        manager.flush_all()
        assert manager.dirty_pages() == []
