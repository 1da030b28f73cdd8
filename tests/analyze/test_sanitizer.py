"""Tests for the runtime invariant sanitizer.

Strategy: a sanitized manager must stay silent through a legitimate
workload, and every deliberate corruption of one cross-structure
invariant must raise a :class:`SanitizerError` naming exactly that
invariant.  Impure policies (defined locally here) prove the virtual-order
checks catch mutation, duplicates, phantom pages, and pinned leaks.
"""

import pytest

from repro.analyze.sanitizer import InvariantSanitizer, attach, env_enabled
from repro.bufferpool.manager import BufferPoolManager
from repro.bufferpool.wal import WriteAheadLog
from repro.errors import SanitizerError
from repro.policies.lru import LRUPolicy
from repro.storage.clock import VirtualClock
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile

TEST_PROFILE = DeviceProfile(
    name="test", alpha=2.0, k_r=4, k_w=4, read_latency_us=100.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)


def make_manager(capacity=8, num_pages=64, policy=None, **kwargs):
    device = SimulatedSSD(TEST_PROFILE, num_pages=num_pages)
    device.format_pages(range(num_pages))
    if policy is None:
        policy = LRUPolicy()
    return BufferPoolManager(capacity, policy, device, **kwargs)


class ShufflingPolicy(LRUPolicy):
    """Impure on purpose: peeking at the order rotates the live state."""

    def eviction_order(self):
        order = list(self._order)
        if order:
            self._order.move_to_end(order[0])
        yield from order


class StutteringPolicy(LRUPolicy):
    """Yields every page twice."""

    def eviction_order(self):
        for page in self._order:
            yield page
            yield page


class PhantomPolicy(LRUPolicy):
    """Appends a page that is not resident."""

    def eviction_order(self):
        yield from super().eviction_order()
        yield 999_999


class PinIgnoringPolicy(LRUPolicy):
    """Forgets to filter pinned pages out of the virtual order."""

    def eviction_order(self):
        yield from self._order


class TestCleanRuns:
    def test_workload_passes_and_counts_checks(self):
        manager = make_manager(sanitize=True)
        for step in range(40):
            page = step % 12  # forces evictions (capacity 8)
            if step % 3 == 0:
                manager.write_page(page, payload=step)
            else:
                manager.read_page(page)
        manager.pin(3)
        manager.read_page(3)
        manager.unpin(3)
        if manager.is_dirty(3):
            manager.flush_page(3)
        manager.flush_all()
        assert manager.sanitizer.checks_run >= 44
        manager.sanitizer.assert_clean()

    def test_off_by_default_and_zero_overhead(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        manager = make_manager()
        assert manager.sanitizer is None
        # No wrappers installed: the ops resolve on the class, not the
        # instance, so unsanitised managers keep the fast path.
        assert "read_page" not in vars(manager)

    def test_sanitized_manager_wraps_every_op(self):
        manager = make_manager(sanitize=True)
        for name in InvariantSanitizer.WRAPPED_OPS:
            assert name in vars(manager)

    def test_attach_is_idempotent(self):
        manager = make_manager(sanitize=True)
        sanitizer = manager.sanitizer
        assert attach(manager) is sanitizer
        before = sanitizer.checks_run
        manager.read_page(1)
        # One op == one validation; a double attach would run two.
        assert sanitizer.checks_run == before + 1


class TestEnvironmentSwitch:
    def test_truthy_values_enable(self, monkeypatch):
        for value in ("1", "true", "yes", "on"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert env_enabled()

    def test_falsy_values_disable(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not env_enabled()
        for value in ("", "0", "false", "no", "off", "OFF"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not env_enabled()

    def test_env_attaches_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert make_manager().sanitizer is not None

    def test_explicit_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert make_manager(sanitize=False).sanitizer is None


class TestCorruptions:
    """Each test breaks one invariant by hand and expects its name back."""

    def test_negative_pin_count(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        frame = manager._frame_of[5]
        manager.pool.pin_counts[frame] = -1
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "pin-count-negative"
        assert exc.value.page == 5

    def test_pinned_page_evicted(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager._pinned_set.add(777)  # pinned but not resident
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "pinned-evicted"
        assert exc.value.page == 777

    def test_pinned_mirror_disagrees(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager._pinned_set.add(5)  # its pin count is still 0
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "pinned-mirror"

    def test_dirty_mirror_disagrees(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)  # clean read
        manager._dirty_set.add(5)  # its dirty bit is still 0
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "dirty-mirror"
        assert exc.value.page == 5

    def test_free_list_count(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager.pool._free.append(manager.pool._free[0])
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "free-list-count"

    def test_free_list_overlap(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        occupied = manager._frame_of[5]
        free = manager.pool._free
        free.pop()
        free.append(occupied)  # same length, but overlaps the table
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "free-list-overlap"
        assert exc.value.frame == occupied

    def test_table_descriptor_mismatch(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager.read_page(6)
        frame_of = manager._frame_of
        frame_of[5], frame_of[6] = frame_of[6], frame_of[5]
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "table-descriptor-mismatch"

    def test_policy_membership(self):
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager.read_page(6)
        manager.policy.remove(6)  # policy forgets a resident page
        with pytest.raises(SanitizerError) as exc:
            manager.sanitizer.assert_clean()
        assert exc.value.invariant == "policy-membership"
        assert exc.value.page == 6

    def test_corruption_caught_by_next_operation(self):
        # The wrappers validate after *every* public op, so corrupt state
        # surfaces on the next call — with that call named as the trigger.
        manager = make_manager(sanitize=True)
        manager.read_page(5)
        manager._dirty_set.add(5)
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(6)
        assert exc.value.invariant == "dirty-mirror"
        assert exc.value.operation == "read_page"


class TestWalChecks:
    """The WAL's columns and durable count, one planted corruption each."""

    @staticmethod
    def wal_manager():
        manager = make_manager(
            sanitize=True, wal=WriteAheadLog(VirtualClock(), records_per_page=4)
        )
        for page in range(6):  # one log page durable, two records buffered
            manager.write_page(page)
        manager.flush_all()  # a durable checkpoint
        manager.write_page(1)
        assert manager.wal.durable_lsn == 7 and manager.wal.lsn == 8
        return manager

    def corrupted(self, corrupt):
        manager = self.wal_manager()
        corrupt(manager.wal)
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(2)
        return exc.value.invariant

    def test_clean_log_passes(self):
        self.wal_manager().sanitizer.assert_clean()

    def test_columns_of_unequal_length(self):
        assert self.corrupted(lambda wal: wal._payloads.append(1)) == "wal-columns"

    def test_durable_count_ahead_of_the_flushed_records(self):
        def ahead(wal):
            wal.durable_lsn += 1
        assert self.corrupted(ahead) == "wal-durable"

    def test_durable_count_behind_without_a_tear(self):
        def behind(wal):
            wal.durable_lsn -= 1
        assert self.corrupted(behind) == "wal-durable"

    def test_checkpoint_past_the_durable_count(self):
        def past(wal):
            wal.last_checkpoint_lsn = wal.durable_lsn + 1
        assert self.corrupted(past) == "wal-checkpoint"


class TestVirtualOrderChecks:
    def test_impure_order_detected(self):
        manager = make_manager(sanitize=True, policy=ShufflingPolicy())
        manager.read_page(1)  # single page: rotation is a no-op, passes
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(2)
        assert exc.value.invariant == "virtual-order-purity"
        assert "ShufflingPolicy" in str(exc.value)

    def test_duplicate_yield_detected(self):
        manager = make_manager(sanitize=True, policy=StutteringPolicy())
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(1)
        assert exc.value.invariant == "virtual-order-duplicates"
        assert exc.value.page == 1

    def test_non_resident_yield_detected(self):
        manager = make_manager(sanitize=True, policy=PhantomPolicy())
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(1)
        assert exc.value.invariant == "virtual-order-membership"
        assert exc.value.page == 999_999

    def test_pinned_yield_detected(self):
        manager = make_manager(sanitize=True, policy=PinIgnoringPolicy())
        manager.read_page(1)
        with pytest.raises(SanitizerError) as exc:
            manager.pin(1)
        assert exc.value.invariant == "virtual-order-pinned"
        assert exc.value.page == 1
        assert exc.value.operation == "pin"


class TestFastPathChecks:
    """A bulk read that strays from ``eviction_order()`` is named."""

    @pytest.mark.parametrize("label", ["peek", "next_dirty", "next_clean"])
    def test_wrong_bulk_read_detected(self, label):
        manager = make_manager(sanitize=True)
        manager.read_page(1)
        manager.write_page(2)
        # Page 1 is clean, page 2 dirty: every reference prefix is
        # non-empty, so an empty answer is wrong for each of the three.
        setattr(manager.policy, label, lambda n: [])
        with pytest.raises(SanitizerError) as exc:
            manager.read_page(3)
        assert exc.value.invariant == f"fast-path-{label}"
        assert exc.value.operation == "read_page"
        assert exc.value.page in (1, 2)


class TestStructuredError:
    def test_attributes_and_message(self):
        error = SanitizerError(
            "dirty-mirror", "write_page", "mirror disagrees", page=7, frame=2
        )
        assert error.invariant == "dirty-mirror"
        assert error.operation == "write_page"
        assert error.page == 7
        assert error.frame == 2
        text = str(error)
        assert "[dirty-mirror]" in text
        assert "write_page" in text
        assert "page 7" in text
        assert "frame 2" in text

    def test_stack_config_passthrough(self):
        from repro.bench.runner import StackConfig, build_stack

        config = StackConfig(
            profile=TEST_PROFILE, policy="lru", variant="ace",
            num_pages=128, sanitize=True,
        )
        manager = build_stack(config)
        assert manager.sanitizer is not None
        manager.read_page(1)
        assert manager.sanitizer.checks_run == 1
