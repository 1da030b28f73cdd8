"""Unit tests for the translation-layer backends and the O(1) counters.

``test_structures.py`` covers the classic dict table's contract; this
module covers what the array backend adds — the translation vector, probe
bounds, backend resolution — and the manager counters the serving layer
reads per dispatch (``pool_pressure``, ``resident_count``).
"""

from __future__ import annotations

import pytest

from repro.bufferpool.table import (
    ARRAY_SPACE_LIMIT,
    ArrayBufferTable,
    BufferTable,
    make_table,
    resolve_backend,
)

from tests.bufferpool.conftest import make_manager


class TestArrayBufferTable:
    def test_probe_contract(self):
        table = ArrayBufferTable(16)
        assert table.probe_space == 16
        assert table._slots[5] == -1
        table.insert(5, 2)
        assert table._slots[5] == 2
        assert table.lookup(5) == 2
        assert table.lookup(6) is None
        assert table.lookup(-1) is None
        assert table.lookup(16) is None

    def test_dict_backend_probe_shim(self):
        table = BufferTable()
        table.insert(5, 2)
        # Same hot-path shape as the vector: index yields frame or -1.
        assert table._slots[5] == 2
        assert table._slots[99] == -1
        assert 99 not in table._slots  # __missing__ must not insert

    def test_insert_out_of_space_rejected(self):
        table = ArrayBufferTable(8)
        with pytest.raises(ValueError, match="address"):
            table.insert(8, 0)
        with pytest.raises(ValueError, match="address"):
            table.insert(-1, 0)

    def test_double_insert_rejected(self):
        table = ArrayBufferTable(8)
        table.insert(3, 1)
        with pytest.raises(ValueError, match="already mapped"):
            table.insert(3, 2)

    def test_delete_clears_slot_and_mirror(self):
        table = ArrayBufferTable(8)
        table.insert(3, 1)
        assert table.delete(3) == 1
        assert table._slots[3] == -1
        assert 3 not in table
        with pytest.raises(KeyError):
            table.delete(3)

    def test_iteration_order_matches_dict_backend(self):
        array_table = ArrayBufferTable(32)
        dict_table = BufferTable()
        ops = [(7, 0), (3, 1), (19, 2), (3, None), (3, 3), (1, 4)]
        for page, frame in ops:
            if frame is None:
                array_table.delete(page)
                dict_table.delete(page)
            else:
                array_table.insert(page, frame)
                dict_table.insert(page, frame)
        assert array_table.pages() == dict_table.pages()
        assert len(array_table) == len(dict_table)

    def test_invalid_space_rejected(self):
        with pytest.raises(ValueError):
            ArrayBufferTable(0)


class TestBackendResolution:
    def test_auto_prefers_array_for_bounded_spaces(self):
        assert resolve_backend(1024) == "array"
        assert resolve_backend(ARRAY_SPACE_LIMIT) == "array"
        assert isinstance(make_table(1024), ArrayBufferTable)

    def test_auto_falls_back_for_huge_or_unknown_spaces(self):
        assert resolve_backend(None) == "dict"
        assert resolve_backend(ARRAY_SPACE_LIMIT + 1) == "dict"
        assert type(make_table(None)) is BufferTable

    def test_explicit_override_wins(self):
        assert resolve_backend(1024, "dict") == "dict"
        assert resolve_backend(ARRAY_SPACE_LIMIT + 1, "dict") == "dict"
        assert resolve_backend(1024, "array") == "array"
        assert type(make_table(1024, "dict")) is BufferTable
        assert isinstance(make_table(1024, "array"), ArrayBufferTable)

    def test_array_needs_bounded_space(self):
        with pytest.raises(ValueError, match="bounded address space"):
            resolve_backend(None, "array")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown translation backend"):
            resolve_backend(1024, "btree")


class TestO1Counters:
    """pool_pressure / resident_count against brute-force recomputation."""

    def brute_pressure(self, manager):
        pressured = {
            page
            for page in manager.resident_pages()
            if manager.is_dirty(page) or manager.is_pinned(page)
        }
        return len(pressured) / manager.capacity

    def test_pressure_tracks_dirty_pinned_union(self):
        manager = make_manager(capacity=8)
        assert manager.pool_pressure == 0.0
        manager.write_page(1)                      # dirty
        manager.read_page(2)
        manager.pin(2)                             # pinned
        manager.write_page(2)                      # dirty ∩ pinned
        assert manager.pool_pressure == self.brute_pressure(manager) == 2 / 8
        manager.flush_page(2)                      # still pinned
        assert manager.pool_pressure == self.brute_pressure(manager)
        manager.unpin(2)
        assert manager.pool_pressure == self.brute_pressure(manager) == 1 / 8
        manager.flush_all()
        assert manager.pool_pressure == 0.0

    def test_pressure_survives_eviction_churn(self):
        manager = make_manager(capacity=4, num_pages=64)
        for page in range(32):
            if page % 3 == 0:
                manager.write_page(page)
            else:
                manager.read_page(page)
            assert manager.pool_pressure == self.brute_pressure(manager)

    def test_resident_count_is_table_length(self):
        manager = make_manager(capacity=4, num_pages=64)
        assert manager.resident_count == 0
        for page in range(10):
            manager.read_page(page)
            assert manager.resident_count == len(manager.resident_pages())
        assert manager.resident_count == 4
