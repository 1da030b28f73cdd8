"""Tests for the statistical-repeats helpers (:mod:`repro.bench.repeats`)."""

import pytest

from repro.bench.repeats import ReplicatedResult, replicate, replicate_speedup
from repro.bench.runner import StackConfig
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace


class TestReplicatedResult:
    def test_statistics(self):
        result = ReplicatedResult("x", (10.0, 12.0, 11.0))
        assert result.n == 3
        assert result.mean == pytest.approx(11.0)
        assert result.std == pytest.approx(1.0)
        assert result.cv == pytest.approx(1.0 / 11.0)

    def test_single_value_no_dispersion(self):
        result = ReplicatedResult("x", (5.0,))
        assert result.std == 0.0
        assert result.cv == 0.0

    def test_str(self):
        assert "cv=" in str(ReplicatedResult("x", (1.0, 2.0)))


class TestReplicate:
    def _config(self, variant="baseline"):
        return StackConfig(
            profile=PCIE_SSD, policy="lru", variant=variant, num_pages=2000,
        )

    def test_runs_once_per_seed(self):
        result = replicate(
            self._config(),
            lambda seed: generate_trace(MS, 2000, 3000, seed=seed),
            seeds=(1, 2, 3),
        )
        assert result.n == 3
        assert all(v > 0 for v in result.values)

    def test_custom_metric(self):
        result = replicate(
            self._config(),
            lambda seed: generate_trace(MS, 2000, 3000, seed=seed),
            seeds=(1, 2),
            metric=lambda m: m.buffer.miss_ratio,
        )
        assert all(0.0 < v < 1.0 for v in result.values)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate(self._config(), lambda s: None, seeds=())

    def test_paper_stability_property(self):
        """The paper's methodology claim: std < 5% across iterations."""
        result = replicate(
            self._config(),
            lambda seed: generate_trace(MS, 2000, 4000, seed=seed),
            seeds=(1, 2, 3, 4, 5),
        )
        assert result.cv < 0.05

    def test_replicate_speedup_stable_and_real(self):
        result = replicate_speedup(
            self._config("baseline"),
            self._config("ace"),
            MS,
            num_pages=2000,
            num_ops=4000,
            seeds=(1, 2, 3),
        )
        assert result.mean > 1.2
        assert result.cv < 0.05
