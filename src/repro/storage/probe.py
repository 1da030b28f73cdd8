"""Empirical measurement of device asymmetry and concurrency (Table I).

The paper determines each device's ``alpha``, ``k_r`` and ``k_w`` "through
careful benchmarking" rather than from spec sheets.  This module reproduces
that methodology against the simulator: it *measures* latencies and
throughputs through the public device API and derives the parameters, so the
Table I bench regenerates the numbers instead of echoing configuration.

* **Asymmetry** is the ratio of mean single-page write latency to mean
  single-page read latency.
* **Concurrency** is found from the batch-throughput curve: submit batches
  of increasing size and report the size that maximises pages/second (the
  knee where one device "wave" is exactly full).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.storage.clock import to_us
from repro.storage.device import SimulatedSSD
from repro.storage.profiles import DeviceProfile

__all__ = ["MeasuredProfile", "measure_asymmetry", "measure_concurrency", "probe_device"]

_PROBE_PAGES = 4096


@dataclass(frozen=True)
class MeasuredProfile:
    """Empirically measured device characteristics."""

    name: str
    alpha: float
    k_r: int
    k_w: int
    read_latency_us: float
    write_latency_us: float


def _fresh_device(profile: DeviceProfile) -> SimulatedSSD:
    return SimulatedSSD(profile, num_pages=_PROBE_PAGES)


def measure_asymmetry(
    profile: DeviceProfile, samples: int = 128, seed: int = 7
) -> tuple[float, float, float]:
    """Measure (alpha, mean read us, mean write us) for a device profile.

    Issues ``samples`` random single-page reads and writes on a fresh device
    instance and compares mean latencies, exactly as an fio-style
    microbenchmark would.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    device = _fresh_device(profile)
    pages = [rng.randrange(_PROBE_PAGES) for _ in range(samples)]

    clock = device.clock
    mark = clock.ticks
    for page in pages:
        device.read_page(page)
    read_us = to_us(clock.ticks - mark) / samples

    mark = clock.ticks
    for page in pages:
        device.write_page(page, payload=0)
    write_us = to_us(clock.ticks - mark) / samples

    return write_us / read_us, read_us, write_us


def measure_concurrency(
    profile: DeviceProfile,
    kind: str,
    max_batch: int = 128,
    trials: int = 8,
    seed: int = 11,
) -> int:
    """Measure read or write concurrency from the throughput-vs-batch curve.

    For each batch size ``n`` the probe submits ``trials`` random batches
    and computes throughput ``n / mean latency``.  The measured concurrency
    is the smallest batch size achieving the maximum throughput: beyond the
    device's parallelism a batch needs a second wave (throughput drops),
    and per-I/O queue pressure makes larger equal-wave batches strictly
    worse.
    """
    if kind not in ("read", "write"):
        raise ValueError(f"kind must be 'read' or 'write', got {kind!r}")
    if max_batch < 1:
        raise ValueError("max_batch must be at least 1")
    rng = random.Random(seed)
    device = _fresh_device(profile)

    best_k = 1
    best_throughput = 0.0
    for n in range(1, max_batch + 1):
        mark = device.clock.ticks
        for _ in range(trials):
            batch = rng.sample(range(_PROBE_PAGES), n)
            if kind == "read":
                device.read_batch(batch)
            else:
                device.write_batch(dict.fromkeys(batch, 0))
        mean_latency = to_us(device.clock.ticks - mark) / trials
        throughput = n / mean_latency
        if throughput > best_throughput * (1.0 + 1e-9):
            best_throughput = throughput
            best_k = n
    return best_k


def probe_device(profile: DeviceProfile, max_batch: int = 128) -> MeasuredProfile:
    """Measure alpha, k_r and k_w of a device profile (regenerates Table I)."""
    alpha, read_us, write_us = measure_asymmetry(profile)
    k_r = measure_concurrency(profile, "read", max_batch=max_batch)
    k_w = measure_concurrency(profile, "write", max_batch=max_batch)
    return MeasuredProfile(
        name=profile.name,
        alpha=alpha,
        k_r=k_r,
        k_w=k_w,
        read_latency_us=read_us,
        write_latency_us=write_us,
    )
