"""Statistical repeats: repeated runs, means, and dispersion.

The paper's methodology note: "The experiment results are averaged over 5
iterations and the standard deviation was less than 5 %."  This module
provides the same discipline for the simulator — repeated runs over
different workload seeds (the simulator itself is deterministic, so seed
variation is the only randomness source) with mean / standard deviation /
coefficient-of-variation reporting.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.bench.runner import StackConfig, run_config
from repro.workloads.synthetic import WorkloadSpec, generate_trace

__all__ = ["ReplicatedResult", "replicate_speedup"]


@dataclass(frozen=True)
class ReplicatedResult:
    """Summary statistics over repeated runs of one configuration."""

    label: str
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Sample standard deviation (n-1 denominator)."""
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        variance = sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)
        return math.sqrt(variance)

    @property
    def cv(self) -> float:
        """Coefficient of variation: std / mean (the paper's < 5% bound)."""
        if self.mean == 0:
            return 0.0
        return self.std / self.mean

    def __str__(self) -> str:
        return (
            f"{self.label}: mean={self.mean:.4g} std={self.std:.3g} "
            f"cv={self.cv:.2%} (n={self.n})"
        )


def replicate_speedup(
    baseline_config: StackConfig,
    candidate_config: StackConfig,
    spec: WorkloadSpec,
    num_pages: int,
    num_ops: int,
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
) -> ReplicatedResult:
    """Speedup of candidate over baseline, replicated over workload seeds.

    Mirrors the paper's 5-iteration averaging for every reported speedup.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    speedups = []
    for seed in seeds:
        trace = generate_trace(spec, num_pages, num_ops, seed=seed)
        baseline = run_config(baseline_config, trace)
        candidate = run_config(candidate_config, trace)
        speedups.append(baseline.elapsed_us / candidate.elapsed_us)
    return ReplicatedResult(
        label=f"speedup {candidate_config.label} vs {baseline_config.label}",
        values=tuple(speedups),
    )
