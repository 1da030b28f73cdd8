"""Unit tests for cluster configuration, stacks, and the metric merge."""

import pytest

from repro.cluster.engine import (
    ClusterConfig,
    MAX_SHARD_ATTEMPTS,
    ShardJob,
    _execute_jobs,
    _replay_shard,
    build_router,
    build_shard_stack,
    merge_shard_metrics,
)
from repro.cluster.router import HashShardRouter, MappedShardRouter
from repro.core.ace import ACEBufferPoolManager
from repro.engine.executor import ExecutionOptions
from repro.errors import ClusterReplayError, ReproError
from repro.storage.profiles import PCIE_SSD
from repro.workloads.trace import Trace

OPTIONS = ExecutionOptions(cpu_us_per_op=10.0)


def make_config(**overrides):
    kwargs = dict(
        profile=PCIE_SSD,
        policy="lru",
        variant="baseline",
        num_pages=256,
        num_shards=4,
        options=OPTIONS,
    )
    kwargs.update(overrides)
    return ClusterConfig(**kwargs)


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(variant="nope")
        with pytest.raises(ValueError):
            make_config(num_shards=0)
        with pytest.raises(ValueError):
            make_config(num_pages=4)
        with pytest.raises(ValueError):
            make_config(pool_fraction=0.0)
        with pytest.raises(ValueError):
            make_config(placement="random")
        with pytest.raises(ValueError):
            make_config(placement="locality")  # needs an assignment

    def test_capacity_split(self):
        config = make_config(num_pages=256, num_shards=4, pool_fraction=0.06)
        # 256 * 0.06 = 15 < 4 * 4 shards -> the per-shard minimum wins.
        assert config.total_capacity == 16
        assert [config.shard_capacity(s) for s in range(4)] == [4, 4, 4, 4]

    def test_capacity_remainder_to_first_shards(self):
        config = make_config(num_pages=1000, num_shards=3, pool_fraction=0.06)
        capacities = [config.shard_capacity(s) for s in range(3)]
        assert sum(capacities) == config.total_capacity == 60
        assert capacities == [20, 20, 20]
        config = make_config(num_pages=1100, num_shards=3, pool_fraction=0.06)
        assert [config.shard_capacity(s) for s in range(3)] == [22, 22, 22]

    def test_label(self):
        assert make_config().label == "lru/baseline/s4/hash"


class TestBuildRouter:
    def test_hash_config_builds_hash_router(self):
        assert isinstance(build_router(make_config()), HashShardRouter)

    def test_locality_config_builds_mapped_router(self):
        assignment = tuple(p % 4 for p in range(256))
        router = build_router(
            make_config(placement="locality", assignment=assignment)
        )
        assert isinstance(router, MappedShardRouter)
        assert router.shard_of(5) == 1


class TestBuildShardStack:
    def test_shard_devices_cover_global_space(self):
        config = make_config()
        manager = build_shard_stack(config, 0)
        assert manager.capacity == config.shard_capacity(0)
        # Global page ids stay valid on every shard node.
        manager.read_page(255)

    def test_ace_variant(self):
        manager = build_shard_stack(make_config(variant="ace"), 1)
        assert isinstance(manager, ACEBufferPoolManager)

    def test_shard_index_validated(self):
        with pytest.raises(ValueError):
            build_shard_stack(make_config(), 4)


class TestMerge:
    @staticmethod
    def _result(shard, pages, writes, config):
        job = ShardJob(
            shard=shard, config=config,
            pages=tuple(pages), writes=tuple(writes),
        )
        return _replay_shard(job)

    def test_merge_is_makespan_plus_sums(self):
        config = make_config(num_shards=2)
        a = self._result(0, [0, 2, 4, 0], [False] * 4, config)
        b = self._result(1, [1, 3], [True, True], config)
        merged = merge_shard_metrics([a, b], "merged")
        assert merged.ops == a.metrics.ops + b.metrics.ops
        assert merged.elapsed_us == max(
            a.metrics.elapsed_us, b.metrics.elapsed_us
        )
        assert merged.io_ticks == a.metrics.io_ticks + b.metrics.io_ticks
        assert merged.cpu_ticks == a.metrics.cpu_ticks + b.metrics.cpu_ticks
        assert merged.buffer.misses == (
            a.metrics.buffer.misses + b.metrics.buffer.misses
        )
        assert merged.device.reads == (
            a.metrics.device.reads + b.metrics.device.reads
        )

    def test_merge_order_independent(self):
        config = make_config(num_shards=2)
        a = self._result(0, [0, 2], [False, False], config)
        b = self._result(1, [1, 3], [True, False], config)
        assert merge_shard_metrics([a, b], "m") == merge_shard_metrics(
            [b, a], "m"
        )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_shard_metrics([], "m")


class TestClusterReplayError:
    def test_attributes_and_message(self):
        error = ClusterReplayError(shard=2, attempts=MAX_SHARD_ATTEMPTS,
                                   error="OSError: boom")
        assert isinstance(error, ReproError)
        assert error.shard == 2
        assert error.attempts == MAX_SHARD_ATTEMPTS
        assert "shard 2" in str(error)
        assert "OSError: boom" in str(error)


def _shard_raising_value_error(job):
    """A shard worker that fails the same way on every attempt."""
    raise ValueError(f"shard {job.shard} is broken")


class TestShardFailureAtAnyWorkerCount:
    """A shard that raises anything but ``NodeFailure`` is retried, then
    raised as ``ClusterReplayError`` — in process as in worker processes
    (in process it used to escape raw, after one attempt)."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raises_cluster_replay_error_after_every_attempt(self, workers):
        config = make_config(num_shards=2)
        trace = Trace([0, 1], [False, False])
        with pytest.raises(ClusterReplayError) as excinfo:
            _execute_jobs(
                config, build_router(config), trace, workers,
                worker=_shard_raising_value_error,
            )
        error = excinfo.value
        assert error.shard == 0
        assert error.attempts == MAX_SHARD_ATTEMPTS
        assert error.error == "ValueError: shard 0 is broken"
        assert error.failure is None
