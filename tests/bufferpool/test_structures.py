"""Tests for buffer tags, the buffer table, and the frame pool."""

import pytest

from repro.bufferpool.pool import FramePool
from repro.bufferpool.table import BufferTable
from repro.bufferpool.tag import BufferTag, ForkNumber


class TestBufferTag:
    def test_construction(self):
        tag = BufferTag(rel_id=3, block=7)
        assert tag.fork is ForkNumber.MAIN
        assert str(tag) == "rel3/main/blk7"

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            BufferTag(rel_id=-1, block=0)
        with pytest.raises(ValueError):
            BufferTag(rel_id=0, block=-1)

    def test_tags_are_hashable_and_ordered(self):
        a = BufferTag(0, 1)
        b = BufferTag(0, 2)
        assert a < b
        assert len({a, b, BufferTag(0, 1)}) == 2


class TestBufferTable:
    def test_lookup_miss_returns_none(self):
        assert BufferTable().lookup(3) is None

    def test_insert_and_lookup(self):
        table = BufferTable()
        table.insert(3, 7)
        assert table.lookup(3) == 7
        assert 3 in table
        assert len(table) == 1

    def test_double_insert_rejected(self):
        table = BufferTable()
        table.insert(3, 7)
        with pytest.raises(ValueError):
            table.insert(3, 8)

    def test_delete_returns_frame(self):
        table = BufferTable()
        table.insert(3, 7)
        assert table.delete(3) == 7
        assert 3 not in table

    def test_delete_missing_rejected(self):
        with pytest.raises(KeyError):
            BufferTable().delete(3)

    def test_pages_listing(self):
        table = BufferTable()
        table.insert(1, 0)
        table.insert(2, 1)
        assert sorted(table.pages()) == [1, 2]


class TestFramePool:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FramePool(0)

    def test_allocate_until_exhausted(self):
        pool = FramePool(2)
        assert {pool.allocate_frame(), pool.allocate_frame()} == {0, 1}
        assert pool.free_count == 0
        with pytest.raises(RuntimeError):
            pool.allocate_frame()

    def test_used_count_tracks(self):
        pool = FramePool(3)
        pool.allocate_frame()
        assert pool.used_count == 1
        assert pool.has_free()
