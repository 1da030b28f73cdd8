"""Extension bench: the paper's 5-iteration replication methodology.

"The experiment results are averaged over 5 iterations and the standard
deviation was less than 5%."  This bench replicates the headline MS
speedups over 5 workload seeds and reports mean +/- std, asserting the
same stability bound.
"""

from repro.bench.experiments import PAPER_OPTIONS, SCALE
from repro.bench.repeats import replicate_speedup
from repro.bench.report import format_table, write_report
from repro.bench.runner import StackConfig
from repro.policies.registry import PAPER_POLICIES, display_name
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS

from benchmarks.conftest import run_once

SEEDS = (1, 2, 3, 4, 5)


def _config(policy: str, variant: str) -> StackConfig:
    return StackConfig(
        profile=PCIE_SSD, policy=policy, variant=variant,
        num_pages=SCALE.num_pages, pool_fraction=SCALE.pool_fraction,
        options=PAPER_OPTIONS,
    )


def run_bench():
    results = {}
    rows = []
    for policy in PAPER_POLICIES:
        result = replicate_speedup(
            _config(policy, "baseline"),
            _config(policy, "ace+pf"),
            MS,
            num_pages=SCALE.num_pages,
            num_ops=SCALE.num_ops // 2,  # 5 iterations: keep each shorter
            seeds=SEEDS,
        )
        results[policy] = result
        rows.append(
            [
                display_name(policy),
                f"{result.mean:.3f}x",
                f"{result.std:.4f}",
                f"{result.cv:.2%}",
            ]
        )
    text = format_table(
        ["Policy", "mean speedup", "std", "cv"],
        rows,
        title=(
            "Extension: ACE+PF speedup over 5 seeds (MS, PCIe) — the "
            "paper's replication methodology"
        ),
    )
    write_report("replication", text)
    return results


def test_replication(benchmark):
    results = run_once(benchmark, run_bench)
    for policy, result in results.items():
        # The paper's stability bound and a real mean gain.
        assert result.cv < 0.05, (policy, result.cv)
        assert result.mean > 1.2, policy


if __name__ == "__main__":
    run_bench()
