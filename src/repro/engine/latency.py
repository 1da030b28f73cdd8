"""Per-request latency distribution tracking.

The paper reports total workload latency; a production bufferpool also
cares about *tail* latency.  ACE changes the shape of the distribution in
an interesting way: the request that trips a batched write-back pays for
``n_w`` writes at one write latency (slightly slower than a single write
when ``n_w > k_w`` would split into waves), while the following ``n_w - 1``
dirty-victim requests become clean evictions and get dramatically faster.
The recorder makes that visible (mean and p95 drop; the extreme tail
reflects the batch stalls).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Collects per-request latencies and reports distribution statistics."""

    def __init__(self) -> None:
        self._samples_us: list[float] = []
        self._sorted: list[float] | None = None

    def record(self, latency_us: float) -> None:
        """Add one request's latency (microseconds of virtual time)."""
        if latency_us < 0:
            raise ValueError(f"latency cannot be negative: {latency_us}")
        self._samples_us.append(latency_us)
        self._sorted = None

    def extend(self, latencies_us: Iterable[float]) -> None:
        """Add requests' latencies (never negative), in request order."""
        self._samples_us += latencies_us
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples_us)

    @property
    def count(self) -> int:
        return len(self._samples_us)

    @property
    def mean_us(self) -> float:
        if not self._samples_us:
            return 0.0
        return sum(self._samples_us) / len(self._samples_us)

    @property
    def max_us(self) -> float:
        if not self._samples_us:
            return 0.0
        return max(self._samples_us)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 < p <= 100), nearest-rank method."""
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100]: {p}")
        if not self._samples_us:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples_us)
        rank = math.ceil(p / 100.0 * len(self._sorted))
        return self._sorted[max(0, rank - 1)]

    @property
    def p50_us(self) -> float:
        return self.percentile(50.0)

    @property
    def p95_us(self) -> float:
        return self.percentile(95.0)

    @property
    def p99_us(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> dict[str, float]:
        """Mean plus the standard percentile set, as a dict."""
        return {
            "count": float(self.count),
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "max_us": self.max_us,
        }

    def __repr__(self) -> str:
        if not self._samples_us:
            return "LatencyRecorder(empty)"
        return (
            f"LatencyRecorder(n={self.count}, mean={self.mean_us:.1f}us, "
            f"p99={self.p99_us:.1f}us)"
        )
