"""Tests for the database layout layer."""

import pytest

from repro.bufferpool.tag import BufferTag
from repro.bufferpool.database import AppendCursor, Database
from repro.storage.profiles import PCIE_SSD


class TestRelation:
    def test_row_to_page_mapping(self):
        db = Database()
        relation = db.add_relation("t", num_rows=100, rows_per_page=10)
        assert relation.num_pages == 10
        assert relation.page_of_row(0) == relation.base_page
        assert relation.page_of_row(99) == relation.base_page + 9

    def test_block_bounds_checked(self):
        db = Database()
        relation = db.add_relation("t", num_rows=10, rows_per_page=10)
        with pytest.raises(IndexError):
            relation.page_of_block(1)

    def test_tag_round_trip(self):
        db = Database()
        db.add_relation("first", num_rows=5, rows_per_page=1)
        relation = db.add_relation("t", num_rows=5, rows_per_page=1)
        page = relation.page_of_block(3)
        assert relation.tag_of_page(page) == BufferTag(rel_id=1, block=3)

    def test_tag_outside_relation_rejected(self):
        db = Database()
        relation = db.add_relation("t", num_rows=5, rows_per_page=1)
        with pytest.raises(IndexError):
            relation.tag_of_page(relation.end_page)


class TestDatabase:
    def test_relations_packed_contiguously(self):
        db = Database()
        a = db.add_relation("a", num_rows=10, rows_per_page=2)
        b = db.add_relation("b", num_rows=4, rows_per_page=2)
        assert a.base_page == 0
        assert b.base_page == a.end_page
        assert db.total_pages == b.end_page

    def test_duplicate_relation_rejected(self):
        db = Database()
        db.add_relation("a", num_rows=1)
        with pytest.raises(ValueError):
            db.add_relation("a", num_rows=1)

    def test_lookup_by_name_and_page(self):
        db = Database()
        a = db.add_relation("a", num_rows=10, rows_per_page=2)
        assert db.relation("a") is a
        assert db.relation_of_page(3) is a
        with pytest.raises(KeyError):
            db.relation("zzz")
        with pytest.raises(IndexError):
            db.relation_of_page(999)

    def test_headroom_extends_relation(self):
        db = Database()
        relation = db.add_relation("h", num_rows=0, rows_per_page=4, headroom_pages=6)
        assert relation.num_pages == 7  # 1 data page minimum + 6 headroom

    def test_create_device_formats_all_pages(self):
        db = Database()
        db.add_relation("a", num_rows=20, rows_per_page=2)
        device = db.create_device(PCIE_SSD)
        assert device.num_pages == db.total_pages
        assert device.contains(db.total_pages - 1)
        assert device.stats.total_ios == 0

    def test_create_device_with_ftl(self):
        db = Database()
        db.add_relation("a", num_rows=20, rows_per_page=2)
        device = db.create_device(PCIE_SSD, with_ftl=True)
        assert device.ftl is not None
        assert device.ftl.counters.logical_writes == 0  # reset after format


class TestAppendCursor:
    def test_fills_page_before_advancing(self):
        db = Database()
        relation = db.add_relation("h", num_rows=0, rows_per_page=3, headroom_pages=4)
        cursor = AppendCursor(relation)
        pages = [cursor.append() for _ in range(7)]
        assert pages[0] == pages[1] == pages[2]
        assert pages[3] == pages[4] == pages[5] != pages[0]
        assert cursor.total_appends == 7

    def test_wraps_at_relation_end(self):
        db = Database()
        relation = db.add_relation("h", num_rows=0, rows_per_page=1, headroom_pages=2)
        cursor = AppendCursor(relation)
        pages = [cursor.append() for _ in range(4)]
        assert pages[3] == pages[0]  # wrapped after 3 pages

    def test_invalid_start_block(self):
        db = Database()
        relation = db.add_relation("h", num_rows=0, rows_per_page=1)
        with pytest.raises(ValueError):
            AppendCursor(relation, start_block=99)
