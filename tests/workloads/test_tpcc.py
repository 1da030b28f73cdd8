"""Tests for the TPC-C schema, transactions, and driver."""

import pytest

from repro.workloads.tpcc.driver import TPCCWorkload
from repro.workloads.tpcc.schema import DISTRICTS_PER_WAREHOUSE, TPCCDatabase, nurand
from repro.workloads.tpcc.transactions import (
    STANDARD_MIX,
    TPCCTransactionGenerator,
    TransactionType,
)


def make_db(warehouses=2, row_scale=0.05):
    return TPCCDatabase(warehouses=warehouses, row_scale=row_scale, seed=1)


TABLES = (
    "warehouse", "district", "customer", "stock", "item",
    "orders", "new_order", "order_line", "history",
)


class TestSchema:
    def test_nine_tables(self):
        db = make_db()
        relations = [db.database.relation(name) for name in TABLES]
        assert sum(r.num_pages for r in relations) == db.database.total_pages

    def test_relative_footprints(self):
        """Stock and order-line dominate; warehouse/district are tiny."""
        db = make_db(warehouses=4, row_scale=0.1)
        assert db.order_line.num_pages > db.customer.num_pages
        assert db.stock.num_pages > db.customer.num_pages
        assert db.warehouse.num_pages <= 2
        assert db.district.num_pages <= 8

    def test_page_mapping_disjoint(self):
        db = make_db()
        seen = set()
        for relation in map(db.database.relation, TABLES):
            pages = set(range(relation.base_page, relation.end_page))
            assert not pages & seen
            seen |= pages

    def test_mapping_bounds_checked(self):
        db = make_db(warehouses=2)
        with pytest.raises(IndexError):
            db.warehouse_page(2)
        with pytest.raises(IndexError):
            db.district_page(0, 10)
        with pytest.raises(IndexError):
            db.customer_page(0, 0, db.customers_per_district)
        with pytest.raises(IndexError):
            db.item_page(db.num_items)

    def test_stock_page_distinct_per_warehouse(self):
        db = make_db(warehouses=2)
        assert db.stock_page(0, 5) != db.stock_page(1, 5)

    def test_order_sequencing(self):
        db = make_db()
        assert db.latest_order(0, 0) is None
        first = db.allocate_order(0, 0)
        second = db.allocate_order(0, 0)
        assert second == first + 1
        assert db.latest_order(0, 0) == second
        assert db.pop_oldest_new_order(0, 0) == first
        assert db.pop_oldest_new_order(0, 0) == second
        assert db.pop_oldest_new_order(0, 0) is None

    def test_recent_orders(self):
        db = make_db()
        for _ in range(5):
            db.allocate_order(0, 1)
        assert db.recent_orders(0, 1, 3) == [2, 3, 4]
        assert db.recent_orders(0, 1, 10) == [0, 1, 2, 3, 4]

    def test_order_line_pages_contiguous(self):
        db = make_db()
        pages = db.order_line_pages(0, 0, 0, 10)
        assert pages == sorted(pages)
        assert len(pages) <= 10

    def test_row_scale_validation(self):
        with pytest.raises(ValueError):
            TPCCDatabase(warehouses=1, row_scale=0.0)
        with pytest.raises(ValueError):
            TPCCDatabase(warehouses=0)


class TestNURand:
    def test_range(self):
        import random
        rng = random.Random(1)
        for _ in range(1000):
            value = nurand(rng, 1023, 0, 2999, c=77)
            assert 0 <= value <= 2999

    def test_non_uniform(self):
        """NURand concentrates mass (it is the OR of two uniforms)."""
        import random
        rng = random.Random(2)
        values = [nurand(rng, 255, 0, 999, c=0) for _ in range(20_000)]
        counts: dict[int, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        top_decile = sorted(counts.values(), reverse=True)[: len(counts) // 10]
        assert sum(top_decile) / len(values) > 0.15


class TestTransactions:
    def make_generator(self):
        db = make_db(warehouses=2)
        for w in range(2):
            for d in range(DISTRICTS_PER_WAREHOUSE):
                for _ in range(5):
                    db.allocate_order(w, d)
        return db, TPCCTransactionGenerator(db, seed=3)

    def test_new_order_shape(self):
        db, generator = self.make_generator()
        requests = generator.new_order()
        writes = [r for r in requests if r.is_write]
        reads = [r for r in requests if not r.is_write]
        assert len(writes) >= 5  # district + stocks + order + new_order + lines
        assert len(reads) >= 8   # warehouse, district, customer, items, stocks

    def test_new_order_pages_valid(self):
        db, generator = self.make_generator()
        for _ in range(50):
            for request in generator.new_order():
                assert 0 <= request.page < db.total_pages

    def test_new_order_aborts_about_one_percent(self):
        db, generator = self.make_generator()
        for _ in range(2000):
            generator.new_order()
        assert 2 <= generator.aborted_new_orders <= 60

    def test_payment_touches_warehouse_district_customer_history(self):
        db, generator = self.make_generator()
        requests = generator.payment()
        pages = {r.page for r in requests}
        assert any(
            db.warehouse.base_page <= p < db.warehouse.end_page for p in pages
        )
        assert any(
            db.history.base_page <= p < db.history.end_page for p in pages
        )
        assert requests[-1].is_write  # history insert

    def test_order_status_is_read_only(self):
        db, generator = self.make_generator()
        requests = generator.order_status()
        assert requests
        assert all(not r.is_write for r in requests)

    def test_stock_level_is_read_only(self):
        db, generator = self.make_generator()
        requests = generator.stock_level()
        assert requests
        assert all(not r.is_write for r in requests)

    def test_delivery_is_write_heavy(self):
        db, generator = self.make_generator()
        requests = generator.delivery()
        writes = sum(1 for r in requests if r.is_write)
        assert writes / len(requests) >= 0.4

    def test_delivery_consumes_new_orders(self):
        db, generator = self.make_generator()
        before = [db.pop_oldest_new_order(0, d) for d in range(1)]
        # popping moved district 0's pointer; delivery still processes rest
        requests = generator.delivery()
        assert requests  # some districts still had pending orders

    def test_generate_dispatch(self):
        db, generator = self.make_generator()
        for kind in TransactionType:
            requests = generator.generate(kind)
            assert isinstance(requests, list)


class TestDriver:
    def test_mix_frequencies(self):
        workload = TPCCWorkload(warehouses=2, row_scale=0.05, seed=4)
        counts = dict.fromkeys(TransactionType, 0)
        for kind, _ in workload.transaction_stream(4000):
            counts[kind] += 1
        assert counts[TransactionType.NEW_ORDER] / 4000 == pytest.approx(0.45, abs=0.03)
        assert counts[TransactionType.PAYMENT] / 4000 == pytest.approx(0.43, abs=0.03)
        assert counts[TransactionType.DELIVERY] / 4000 == pytest.approx(0.04, abs=0.02)

    def test_only_filter(self):
        workload = TPCCWorkload(warehouses=1, row_scale=0.05, seed=4)
        kinds = {
            kind
            for kind, _ in workload.transaction_stream(
                50, only=TransactionType.PAYMENT
            )
        }
        assert kinds == {TransactionType.PAYMENT}

    def test_trace_pages_in_range(self):
        workload = TPCCWorkload(warehouses=2, row_scale=0.05, seed=5)
        trace = workload.trace(200)
        low, high = trace.footprint()
        assert low >= 0
        assert high < workload.total_pages

    def test_mix_is_write_mixed(self):
        workload = TPCCWorkload(warehouses=2, row_scale=0.05, seed=6)
        trace = workload.trace(500)
        assert 0.15 < 1 - trace.read_fraction < 0.6

    def test_standard_mix_sums_to_one(self):
        assert sum(STANDARD_MIX.values()) == pytest.approx(1.0)

    def test_initial_orders_seeded(self):
        workload = TPCCWorkload(
            warehouses=1, row_scale=0.05, initial_orders_per_district=7
        )
        assert workload.db.latest_order(0, 0) == 6

    def test_negative_count_rejected(self):
        workload = TPCCWorkload(warehouses=1, row_scale=0.05)
        with pytest.raises(ValueError):
            list(workload.transaction_stream(-1))
