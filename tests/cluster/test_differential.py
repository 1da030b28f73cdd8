"""Differential battery: the cluster must degenerate to the single pool.

Three equivalence claims pin the merge semantics down:

* a **1-shard cluster** is the unsharded engine — merged ``RunMetrics``
  byte-identical to :func:`repro.bench.runner.run_config` across
  policies and variants (max = sum for one shard, penalty zero);
* an **N-shard cluster on a shard-local workload** does exactly the
  single pool's work — counters sum to the unsharded run's and the
  shard virtual times sum to the unsharded elapsed (exact-binary
  latencies make the float sums order-free);
* the merged metrics are **byte-identical at any worker count** — the
  process fan-out only moves where each pure shard replay happens.
"""

from dataclasses import asdict

import pytest

from repro.bench.runner import StackConfig, run_config
from repro.cluster.engine import ClusterConfig, run_cluster
from repro.engine.executor import ExecutionOptions
from repro.storage.profiles import PCIE_SSD, DeviceProfile
from repro.workloads.synthetic import MS, generate_trace

OPTIONS = ExecutionOptions(cpu_us_per_op=10.0)

#: Every latency an exact binary float: sums of per-op costs are exact
#: whatever order they run in, so sharded totals equal unsharded totals
#: bit for bit.
BINARY_PROFILE = DeviceProfile(
    name="binary", alpha=4.0, k_r=4, k_w=4, read_latency_us=64.0,
    submit_overhead_us=0.0, queue_overhead_us=0.0,
)
BINARY_OPTIONS = ExecutionOptions(cpu_us_per_op=32.0)


class TestSingleShardEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "clock", "cflru"])
    @pytest.mark.parametrize("variant", ["baseline", "ace"])
    def test_merged_metrics_identical_to_unsharded(self, policy, variant):
        trace = generate_trace(MS, 600, 1500, seed=11)
        stack = StackConfig(
            profile=PCIE_SSD, policy=policy, variant=variant,
            num_pages=600, options=OPTIONS,
        )
        expected = run_config(stack, trace, label="diff")
        config = ClusterConfig(
            profile=PCIE_SSD, policy=policy, variant=variant,
            num_pages=600, num_shards=1, options=OPTIONS,
        )
        got = run_cluster(config, trace, workers=1, label="diff")
        assert asdict(got.merged) == asdict(expected)
        assert got.serial_elapsed_us == expected.elapsed_us
        assert got.per_shard_ops == [len(trace)]


class TestShardLocalEquivalence:
    def test_n_shard_cluster_does_the_single_pool_work(self):
        """Working set fits every pool, pages split cleanly by hash: the
        4-shard cluster must do exactly the unsharded run's work."""
        num_pages = 64
        trace = generate_trace(MS, num_pages, 2000, seed=5)
        stack = StackConfig(
            profile=BINARY_PROFILE, policy="lru", variant="baseline",
            num_pages=num_pages, pool_fraction=1.0, options=BINARY_OPTIONS,
        )
        expected = run_config(stack, trace, label="local")
        config = ClusterConfig(
            profile=BINARY_PROFILE, policy="lru", variant="baseline",
            num_pages=num_pages, num_shards=4, pool_fraction=1.0,
            options=BINARY_OPTIONS,
        )
        got = run_cluster(config, trace, workers=1, label="local")
        assert got.ops == expected.ops
        assert asdict(got.merged.buffer) == asdict(expected.buffer)
        assert asdict(got.merged.device) == asdict(expected.device)
        # No evictions anywhere: misses = cold misses = one per touched
        # page, in the cluster exactly as in the single pool.
        assert got.merged.buffer.evictions == 0
        assert got.merged.buffer.misses == len(set(trace.pages))
        # Virtual work is conserved exactly (binary latencies): the sum
        # of shard clocks is the single node's clock, the makespan is
        # what parallel shard service buys.
        assert got.serial_elapsed_us == expected.elapsed_us
        assert got.merged.io_ticks == expected.io_ticks
        assert got.merged.cpu_ticks == expected.cpu_ticks
        assert got.merged.elapsed_us == max(
            shard.elapsed_us for shard in got.per_shard
        )
        assert got.merged.elapsed_us < expected.elapsed_us


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("policy,variant", [
        ("lru", "baseline"), ("cflru", "ace"),
    ])
    def test_merged_metrics_identical_at_any_worker_count(
        self, policy, variant
    ):
        trace = generate_trace(MS, 400, 800, seed=3)
        config = ClusterConfig(
            profile=PCIE_SSD, policy=policy, variant=variant,
            num_pages=400, num_shards=4, options=OPTIONS,
        )
        serial = run_cluster(config, trace, workers=1)
        parallel = run_cluster(config, trace, workers=4)
        assert asdict(serial.merged) == asdict(parallel.merged)
        assert [asdict(shard) for shard in serial.per_shard] == [
            asdict(shard) for shard in parallel.per_shard
        ]
        assert serial.per_shard_ops == parallel.per_shard_ops
        assert serial.serial_elapsed_us == parallel.serial_elapsed_us
