"""Extension bench: monolithic vs partitioned bufferpool, with ACE.

Production systems shard the bufferpool to cut latch contention; the cost
is placement imbalance under skew.  This bench quantifies that tradeoff in
the simulator (where only the behavioural cost exists) and shows ACE's
batching works unchanged inside each partition.
"""

from repro.bench.experiments import PAPER_OPTIONS, SCALE, _synthetic_trace
from repro.bench.report import format_table, write_report
from repro.bufferpool.manager import BufferPoolManager
from repro.cluster.partitioned import PartitionedBufferPoolManager
from repro.core.ace import ACEBufferPoolManager
from repro.core.config import ACEConfig
from repro.engine.executor import run_trace
from repro.policies.lru import LRUPolicy
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS

from benchmarks.conftest import run_once

PARTITION_COUNTS = (1, 4, 16)


def _fresh_device():
    device = SimulatedSSD(PCIE_SSD, num_pages=SCALE.num_pages)
    device.format_pages(range(SCALE.num_pages))
    return device


def _factory(ace: bool):
    def build(capacity: int, device: SimulatedSSD) -> BufferPoolManager:
        if ace:
            return ACEBufferPoolManager(
                capacity, LRUPolicy(), device,
                config=ACEConfig.for_device(PCIE_SSD),
            )
        return BufferPoolManager(capacity, LRUPolicy(), device)

    return build


def run_bench():
    trace = _synthetic_trace(MS)
    capacity = max(4, int(SCALE.num_pages * SCALE.pool_fraction))
    results = {}
    rows = []
    for partitions in PARTITION_COUNTS:
        for ace in (False, True):
            manager = PartitionedBufferPoolManager(
                capacity, partitions, _fresh_device(), _factory(ace)
            )
            label = f"{partitions}p/{'ace' if ace else 'baseline'}"
            metrics = run_trace(manager, trace, options=PAPER_OPTIONS,
                                label=label)
            results[(partitions, ace)] = metrics
            occupancy = manager.occupancy()
            rows.append(
                [
                    partitions,
                    "ACE" if ace else "baseline",
                    f"{metrics.runtime_s:.3f}",
                    f"{metrics.buffer.miss_ratio:.4f}",
                    f"{max(occupancy) - min(occupancy)}",
                ]
            )
    text = format_table(
        ["partitions", "variant", "runtime (s)", "miss ratio",
         "occupancy spread"],
        rows,
        title="Extension: monolithic vs partitioned pool (MS, LRU, PCIe)",
    )
    write_report("partitioned", text)
    return results


def test_partitioned(benchmark):
    results = run_once(benchmark, run_bench)
    for partitions in PARTITION_COUNTS:
        base = results[(partitions, False)]
        ace = results[(partitions, True)]
        # ACE's batching survives sharding at every partition count.
        assert ace.elapsed_us < base.elapsed_us * 0.75, partitions
    # Sharding costs (at most a little) hit ratio under skew: the
    # monolithic pool is the miss-ratio lower bound.
    assert (
        results[(1, False)].buffer.miss_ratio
        <= results[(16, False)].buffer.miss_ratio + 0.01
    )


if __name__ == "__main__":
    run_bench()
