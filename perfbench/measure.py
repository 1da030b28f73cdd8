"""The end-to-end run: set-up, calibrated timed passes, opcode count, audits.

Run shape (every workload): set-up is timed as ``setup_s`` and excluded
from everything else; the timed part is a fixed number of passes, each one
call of the public entry point timed with ``perf_counter`` from this
process, with the calibration kernel run either side; the opcode count is
one extra pass that overlaps nothing; audits come last.
"""

from __future__ import annotations

import gc
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.calib import Calibrator
from perfbench.workloads import SPECS, make_run, passes_for

__all__ = ["EndToEnd", "measure"]

#: ``setup_s`` is the median of this many full, identical set-ups (the
#: driver asks for a median); the last one is the run's.
SETUPS = 3


@dataclass
class EndToEnd:
    """Everything one untraced run measured."""

    workload: str
    passes: int
    pass_walls_s: list[float]
    #: Kernel walls: ``kernel_walls_s[i]`` ran before pass ``i``,
    #: ``kernel_walls_s[i + 1]`` after it.
    kernel_walls_s: list[float]
    calibration: dict[str, float]
    #: Median over passes of accesses / pass wall: what a user feels, and
    #: too unsteady on a shared host to be gated on (see metrics.py).
    accesses_per_s: float
    metrics: dict[str, float]
    attempted: int
    #: Units (passes, audits) with at least one failed check.
    failed: int
    failures: list[str] = field(default_factory=list)


def _peak_rss_mb() -> float:
    # Linux reports kilobytes.  The children figure is the largest single
    # worker, so this is the main process plus one shard client.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure(workload: str, seed: int, seconds: float, scale: float = 1.0) -> EndToEnd:
    """Run one workload untraced and return its end-to-end metrics."""
    spec = SPECS[workload]
    passes = passes_for(spec, seconds)

    setup_walls: list[float] = []
    run = None
    for _ in range(SETUPS):
        run = None  # release the previous stack before building the next
        gc.collect()
        start = perf_counter()
        run = make_run(spec, seed, passes, scale)
        setup_walls.append(perf_counter() - start)

    calibration_steps = max(1_000, int(spec.calib_iterations * scale))
    calibrator = Calibrator(*run.calibration_lists(), calibration_steps)
    calibrator.run()  # first run fills the kernel's own structures
    calibrator.walls.clear()

    results = []
    walls = []
    step_costs = []
    before = calibrator.run()
    for index in range(passes):
        gc.collect()
        start = perf_counter()
        raw = run.execute(index)
        wall = perf_counter() - start
        after = calibrator.run()
        result = run.account(raw)
        results.append(result)
        walls.append(wall)
        # One access in units of one kernel step: size-free, so slices of
        # different length (TPC-C batches) give comparable ratios.
        kernel_step_s = (before + after) / 2 / calibration_steps
        step_costs.append(wall / result.ops / kernel_step_s)
        before = after

    gc.collect()
    opcodes, counted_ops = run.count_opcodes()
    audits = run.finish()

    failures = [
        f"pass {index}: {failure}"
        for index, result in enumerate(results)
        for failure in result.failures
    ] + [f"{name}: {failure}" for name, failed in audits for failure in failed]
    attempted = len(results) + len(audits)
    failed_units = sum(bool(result.failures) for result in results) + sum(
        bool(failed) for _, failed in audits
    )
    total_ops = sum(result.ops for result in results)
    metrics = {
        "cost_vs_calib": statistics.median(step_costs),
        "opcodes_per_op": opcodes / counted_ops,
        "virtual_runtime_s": sum(result.virtual_us for result in results) / 1e6,
        "device_ios_per_kop": 1e3
        * sum(result.device_ios for result in results)
        / total_ops,
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": _peak_rss_mb(),
        "passed_share": (attempted - failed_units) / attempted,
    }
    return EndToEnd(
        workload=workload,
        passes=passes,
        pass_walls_s=walls,
        kernel_walls_s=calibrator.walls,
        calibration=calibrator.summary(),
        accesses_per_s=statistics.median(
            result.ops / wall for result, wall in zip(results, walls)
        ),
        metrics=metrics,
        attempted=attempted,
        failed=failed_units,
        failures=failures,
    )
