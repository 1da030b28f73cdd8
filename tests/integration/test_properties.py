"""Cross-cutting property-based tests over the whole stack."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import StackConfig, build_stack
from repro.storage.profiles import PCIE_SSD, emulated_profile
from repro.workloads.trace import Trace


def replay(manager, trace):
    for page, is_write in zip(trace.pages, trace.writes):
        manager.access(page, is_write)
    return manager


def random_trace(rng, num_pages, ops, write_fraction=0.5):
    pages = [rng.randrange(num_pages) for _ in range(ops)]
    writes = [rng.random() < write_fraction for _ in range(ops)]
    return Trace(pages, writes)


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_identical_runs_are_bit_identical(self, seed):
        """The simulator is fully deterministic: same inputs, same clocks."""
        rng = random.Random(seed)
        trace = random_trace(rng, 256, 400)
        clocks = []
        for _ in range(2):
            config = StackConfig(
                profile=PCIE_SSD, policy="lru_wsr", variant="ace+pf",
                num_pages=256, pool_fraction=0.08,
            )
            manager = replay(build_stack(config), trace)
            clocks.append(manager.device.clock.now_us)
        assert clocks[0] == clocks[1]


class TestMonotonicity:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bigger_pool_never_more_misses_for_lru(self, seed):
        """LRU's inclusion property: capacity up, misses never up."""
        rng = random.Random(seed)
        trace = random_trace(rng, 300, 600)
        misses = []
        for fraction in (0.05, 0.10, 0.20):
            config = StackConfig(
                profile=PCIE_SSD, policy="lru", variant="baseline",
                num_pages=300, pool_fraction=fraction,
            )
            manager = replay(build_stack(config), trace)
            misses.append(manager.stats.misses)
        assert misses[0] >= misses[1] >= misses[2]

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        write_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_ace_never_loses_at_any_write_fraction(self, seed, write_fraction):
        rng = random.Random(seed)
        trace = random_trace(rng, 256, 500, write_fraction=write_fraction)
        times = {}
        for variant in ("baseline", "ace"):
            config = StackConfig(
                profile=PCIE_SSD, policy="lru", variant=variant,
                num_pages=256, pool_fraction=0.08,
            )
            manager = replay(build_stack(config), trace)
            times[variant] = manager.device.clock.now_us
        assert times["ace"] <= times["baseline"] * (1 + 1e-9)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_higher_asymmetry_never_reduces_ace_gain(self, seed):
        rng = random.Random(seed)
        trace = random_trace(rng, 256, 500, write_fraction=0.7)
        gains = []
        for alpha in (1.0, 4.0):
            profile = emulated_profile(alpha=alpha, k_w=8)
            times = {}
            for variant in ("baseline", "ace"):
                config = StackConfig(
                    profile=profile, policy="lru", variant=variant,
                    num_pages=256, pool_fraction=0.08,
                )
                manager = replay(build_stack(config), trace)
                times[variant] = manager.device.clock.now_us
            gains.append(times["baseline"] / times["ace"])
        assert gains[1] >= gains[0] - 1e-9


class TestConservation:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_io_accounting_conserved(self, seed):
        """Device reads = misses + prefetches; writes = write-backs."""
        rng = random.Random(seed)
        trace = random_trace(rng, 256, 500)
        config = StackConfig(
            profile=PCIE_SSD, policy="lru", variant="ace+pf",
            num_pages=256, pool_fraction=0.08,
        )
        manager = replay(build_stack(config), trace)
        stats = manager.stats
        device = manager.device.stats
        assert device.reads == stats.misses + stats.prefetch_issued
        assert device.writes == stats.writebacks

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_prefetch_outcomes_partition(self, seed):
        """Every prefetched page is eventually hit, evicted unused, or
        still resident awaiting its fate."""
        rng = random.Random(seed)
        trace = random_trace(rng, 256, 500)
        config = StackConfig(
            profile=PCIE_SSD, policy="lru", variant="ace+pf",
            num_pages=256, pool_fraction=0.08,
        )
        manager = replay(build_stack(config), trace)
        stats = manager.stats
        pool = manager.pool
        still_resident = sum(
            page >= 0 and bit for page, bit in zip(pool.page_of, pool.prefetched_bits)
        )
        assert (
            stats.prefetch_issued
            == stats.prefetch_hits + stats.prefetch_unused + still_resident
        )
