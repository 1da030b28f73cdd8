"""Tests for the statistical-repeats helpers (:mod:`repro.bench.repeats`)."""

import pytest

from repro.bench.repeats import ReplicatedResult, replicate_speedup
from repro.bench.runner import StackConfig
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS


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

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            replicate_speedup(
                self._config(), self._config("ace"), MS, 2000, 3000, seeds=()
            )

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
