"""Overload harness: goodput-vs-offered-load sweeps and the breaker A/B.

The robustness claim this harness guards: with the serving layer in front,
the engine *degrades gracefully* under saturation — offered load beyond
capacity is shed at admission while goodput (on-time completions per
virtual second) stays near the service rate, instead of collapsing into a
queueing cliff where every request waits past its deadline.  The sweep
calibrates each stack's closed-loop service rate, then replays the same
multi-client trace open-loop at multiples of it (0.5x .. 2x), per shedding
policy and per {baseline, ACE} variant, and asserts the no-cliff property:
``goodput(max multiplier) >= GRACEFUL_THRESHOLD * peak goodput``.

A second experiment A/Bs the circuit breaker: a mistuned ACE stack
(``n_w = 4 * k_w``, so every write-back batch splits into four device
waves) serving near saturation under injected latency spikes, breaker off
vs on.  Tripping degrades batches back to one wave, which shortens both
the triggering request's stall and the queue wait it imposes on everything
behind it — p50/p99 drop deterministically.

Everything runs on seeded virtual time: the same seed reproduces the same
curves, cell by cell.  ``python -m repro overload [--smoke]`` prints
:func:`format_report` and exits non-zero on any violated assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import StackConfig, build_stack
from repro.engine.executor import ExecutionOptions, run_trace
from repro.engine.multiclient import interleave_traces
from repro.engine.serving import BreakerConfig, ServingConfig, SHED_POLICIES
from repro.faults import FaultPlan
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import WorkloadSpec, generate_trace
from repro.workloads.trace import Trace

__all__ = [
    "OverloadCell",
    "OverloadCurve",
    "BreakerABResult",
    "OverloadReport",
    "DEFAULT_MULTIPLIERS",
    "SMOKE_MULTIPLIERS",
    "make_overload_trace",
    "run_cell",
    "run_sweep",
    "run_breaker_ab",
    "smoke_grid",
    "format_report",
]

#: Offered-load multipliers of the calibrated service rate.
DEFAULT_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)
SMOKE_MULTIPLIERS = (0.5, 1.0, 2.0)
VARIANTS = ("baseline", "ace")

#: Every curve serves lru stacks through a 32-deep admission queue.
POLICY = "lru"
QUEUE_CAPACITY = 32

#: No cliff: goodput at the highest offered load keeps this share of the
#: curve's peak.
GRACEFUL_THRESHOLD = 0.7

#: The sweep workload: write-heavy with 90/10 locality, the regime where
#: ACE's batched write-backs (and their stalls) matter.
_SWEEP_SPEC = WorkloadSpec(
    "overload-mix",
    read_fraction=0.6,
    locality=(0.9, 0.1),
    description="overload sweep mix",
)
_AB_SPEC = WorkloadSpec(
    "breaker-ab",
    read_fraction=0.3,
    locality=(0.9, 0.1),
    description="write-heavy breaker A/B mix",
)


@dataclass(frozen=True)
class OverloadCell:
    """One (stack, shed policy, offered-load multiplier) serving run."""

    policy: str
    variant: str
    shed_policy: str
    multiplier: float
    offered: int
    admitted: int
    shed: int
    expired: int
    requeued: int
    completed: int
    completed_late: int
    failed: int
    offered_per_s: float
    goodput_per_s: float
    p50_us: float
    p99_us: float


@dataclass(frozen=True)
class OverloadCurve:
    """Goodput vs offered load for one (policy, variant, shed policy)."""

    policy: str
    variant: str
    shed_policy: str
    service_rate_per_s: float
    cells: tuple[OverloadCell, ...]

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.variant}/{self.shed_policy}"

    @property
    def peak_goodput_per_s(self) -> float:
        return max(cell.goodput_per_s for cell in self.cells)

    @property
    def goodput_at_max_load_per_s(self) -> float:
        top = max(self.cells, key=lambda cell: cell.multiplier)
        return top.goodput_per_s

    @property
    def graceful(self) -> bool:
        """No cliff: goodput at the highest offered load holds up."""
        peak = self.peak_goodput_per_s
        if peak <= 0:
            return False
        return self.goodput_at_max_load_per_s >= GRACEFUL_THRESHOLD * peak


@dataclass(frozen=True)
class BreakerABResult:
    """Breaker-off vs breaker-on under latency spikes, same stack and load."""

    policy: str
    p50_off_us: float
    p50_on_us: float
    p99_off_us: float
    p99_on_us: float
    completed_off: int
    completed_on: int
    trips: tuple[tuple[float, int], ...]
    restores: tuple[tuple[float, int], ...]
    recoveries: tuple[tuple[float, int], ...]

    @property
    def tripped(self) -> bool:
        return bool(self.trips)

    @property
    def improved(self) -> bool:
        """The acceptance criterion: the breaker reduced tail latency."""
        return self.tripped and self.p99_on_us < self.p99_off_us


@dataclass(frozen=True)
class OverloadReport:
    """All curves of one sweep plus the breaker A/B."""

    curves: tuple[OverloadCurve, ...]
    breaker: BreakerABResult
    seed: int

    @property
    def ok(self) -> bool:
        return (
            all(curve.graceful for curve in self.curves)
            and self.breaker.improved
        )

    @property
    def failures(self) -> tuple[str, ...]:
        failed = tuple(
            f"cliff: {curve.label} goodput@max="
            f"{curve.goodput_at_max_load_per_s:.0f}/s < "
            f"{GRACEFUL_THRESHOLD:.0%} of peak {curve.peak_goodput_per_s:.0f}/s"
            for curve in self.curves
            if not curve.graceful
        )
        if not self.breaker.improved:
            failed += (
                f"breaker: p99 on={self.breaker.p99_on_us:.0f}us !< "
                f"off={self.breaker.p99_off_us:.0f}us "
                f"(trips={len(self.breaker.trips)})",
            )
        return failed


def make_overload_trace(
    num_pages: int, ops: int, seed: int, clients: int = 4
) -> Trace:
    """A multi-client trace with unequal sessions and client attribution.

    Client 0 issues a double share; ``weights="remaining"`` keeps the
    heavy client interleaved proportionally (instead of dominating the
    tail), and the resulting ``client_ids`` let the serving layer bill
    each request to its session.
    """
    per_client = max(1, ops // (clients + 1))
    sizes = [2 * per_client] + [per_client] * (clients - 1)
    traces = [
        generate_trace(_SWEEP_SPEC, num_pages, size, seed=seed + index)
        for index, size in enumerate(sizes)
    ]
    return interleave_traces(
        traces, mode="random", seed=seed, weights="remaining", name="overload"
    )


def _calibrate(config: StackConfig, trace: Trace) -> float:
    """Closed-loop service rate (requests per virtual second) of a stack."""
    manager = build_stack(config)
    metrics = run_trace(manager, trace, options=config.options)
    return metrics.ops_per_second


def run_cell(
    config: StackConfig,
    trace: Trace,
    shed_policy: str,
    multiplier: float,
    service_rate_per_s: float,
) -> OverloadCell:
    """One open-loop serving run at ``multiplier`` x the service rate."""
    mean_service_us = 1e6 / service_rate_per_s
    serving = ServingConfig(
        queue_capacity=QUEUE_CAPACITY,
        # Generous relative to the worst full-queue wait, so saturation
        # sheds at admission rather than expiring everything it admitted
        # (which is the cliff this harness exists to rule out).
        deadline_us=2.0 * QUEUE_CAPACITY * mean_service_us,
        shed_policy=shed_policy,
        arrival_interval_us=mean_service_us / multiplier,
    )
    manager = build_stack(config)
    metrics = run_trace(manager, trace, options=config.options, serving=serving)
    s = metrics.serving
    return OverloadCell(
        policy=config.policy,
        variant=config.variant,
        shed_policy=shed_policy,
        multiplier=multiplier,
        offered=s.offered,
        admitted=s.admitted,
        shed=s.shed,
        expired=s.expired,
        requeued=s.requeued,
        completed=s.completed,
        completed_late=s.completed_late,
        failed=s.failed,
        offered_per_s=s.offered_per_s,
        goodput_per_s=s.goodput_per_s,
        p50_us=s.latency.p50_us,
        p99_us=s.latency.p99_us,
    )


def run_sweep(
    multipliers: tuple[float, ...] = DEFAULT_MULTIPLIERS,
    num_pages: int = 2_000,
    ops: int = 6_000,
    seed: int = 7,
) -> OverloadReport:
    """Sweep goodput vs offered load per variant and shed policy, and run
    the breaker A/B."""
    options = ExecutionOptions()
    trace = make_overload_trace(num_pages, ops, seed)
    curves: list[OverloadCurve] = []
    for variant in VARIANTS:
        config = StackConfig(
            profile=PCIE_SSD, policy=POLICY, variant=variant,
            num_pages=num_pages, options=options,
        )
        rate = _calibrate(config, trace)
        for shed_policy in SHED_POLICIES:
            cells = tuple(
                run_cell(config, trace, shed_policy, multiplier, rate)
                for multiplier in multipliers
            )
            curves.append(
                OverloadCurve(
                    policy=POLICY,
                    variant=variant,
                    shed_policy=shed_policy,
                    service_rate_per_s=rate,
                    cells=cells,
                )
            )
    return OverloadReport(
        curves=tuple(curves), breaker=run_breaker_ab(seed=seed), seed=seed,
    )


def run_breaker_ab(seed: int = 7) -> BreakerABResult:
    """Deterministic A/B: latency spikes + mistuned ACE, breaker off vs on.

    The lru stack runs ACE with ``n_w = 4 * k_w`` (four device waves per
    write-back batch — a plausible mistuning when a cloud volume's
    concurrency drops under the configured value) at its calibrated
    service rate over 6,000 requests on 4,000 pages, with rare (0.5 %)
    4 ms latency spikes injected.  Breaker-on degrades batches to one wave
    while tripped.
    """
    profile, num_pages, ops = PCIE_SSD, 4_000, 6_000
    mistuned_n_w = 4 * profile.k_w
    plan = FaultPlan.spikes(0.005, spike_us=4_000.0, seed=seed)
    options = ExecutionOptions()
    config = StackConfig(
        profile=profile,
        policy=POLICY,
        variant="ace",
        num_pages=num_pages,
        n_w=mistuned_n_w,
        n_e=mistuned_n_w,
        fault_plan=plan,
        options=options,
    )
    trace = generate_trace(_AB_SPEC, num_pages, ops, seed=seed)
    rate = _calibrate(config, trace)
    interval = 1e6 / rate
    base = dict(
        queue_capacity=256,
        deadline_us=0.0,  # measure completion latency, not goodput
        arrival_interval_us=interval,
    )
    off = ServingConfig(**base)
    on = ServingConfig(
        **base,
        breaker=BreakerConfig(
            p99_threshold_us=2_500.0,
            window=128,
            min_samples=16,
            eval_every=4,
            cooldown_us=1_000_000.0,
            probation=8,
            degraded_n_w=profile.k_w,
            degraded_n_e=profile.k_w,
        ),
    )
    metrics_off = run_trace(
        build_stack(config), trace, options=options, serving=off
    )
    metrics_on = run_trace(
        build_stack(config), trace, options=options, serving=on
    )
    s_off, s_on = metrics_off.serving, metrics_on.serving
    return BreakerABResult(
        policy=POLICY,
        p50_off_us=s_off.latency.p50_us,
        p50_on_us=s_on.latency.p50_us,
        p99_off_us=s_off.latency.p99_us,
        p99_on_us=s_on.latency.p99_us,
        completed_off=s_off.completed,
        completed_on=s_on.completed,
        trips=tuple(s_on.breaker_trips),
        restores=tuple(s_on.breaker_restores),
        recoveries=tuple(s_on.breaker_recoveries),
    )


def smoke_grid() -> OverloadReport:
    """The CI smoke sweep: both variants, all shed policies, 3 multipliers."""
    return run_sweep(multipliers=SMOKE_MULTIPLIERS, num_pages=1_200, ops=4_000)


# ------------------------------------------------------------------ report


def format_report(report: OverloadReport) -> str:
    """The ``overload`` verdict: each curve with its graceful/cliff line,
    the breaker A/B, and the closing ``OVERLOAD OK`` or ``FAIL`` lines."""
    lines: list[str] = []
    header = (
        f"{'stack':<28} {'mult':>5} {'offered/s':>10} {'goodput/s':>10} "
        f"{'shed':>6} {'expired':>8} {'requeued':>9} {'late':>6} "
        f"{'p50us':>8} {'p99us':>9}"
    )
    lines.append("overload sweep (seed %d)" % report.seed)
    lines.append(header)
    lines.append("-" * len(header))
    for curve in report.curves:
        for cell in curve.cells:
            lines.append(
                f"{curve.label:<28} {cell.multiplier:>5.2f} "
                f"{cell.offered_per_s:>10.0f} {cell.goodput_per_s:>10.0f} "
                f"{cell.shed:>6} {cell.expired:>8} {cell.requeued:>9} "
                f"{cell.completed_late:>6} {cell.p50_us:>8.0f} "
                f"{cell.p99_us:>9.0f}"
            )
        verdict = "graceful" if curve.graceful else "CLIFF"
        lines.append(
            f"  -> {verdict}: goodput@max "
            f"{curve.goodput_at_max_load_per_s:.0f}/s vs peak "
            f"{curve.peak_goodput_per_s:.0f}/s "
            f"(threshold {GRACEFUL_THRESHOLD:.0%})"
        )
    ab = report.breaker
    lines.append("")
    lines.append(
        "breaker A/B (mistuned ACE + latency spikes, "
        f"{len(ab.trips)} trip(s), {len(ab.restores)} restore(s)):"
    )
    lines.append(
        f"  off: p50={ab.p50_off_us:.0f}us p99={ab.p99_off_us:.0f}us "
        f"completed={ab.completed_off}"
    )
    lines.append(
        f"  on:  p50={ab.p50_on_us:.0f}us p99={ab.p99_on_us:.0f}us "
        f"completed={ab.completed_on}"
    )
    lines.append(
        "  -> breaker "
        + (
            f"reduced p99 by {100 * (1 - ab.p99_on_us / ab.p99_off_us):.1f}%"
            if ab.improved
            else "DID NOT reduce p99"
        )
    )
    lines.append("")
    if report.ok:
        lines.append("OVERLOAD OK: graceful degradation + breaker win")
    else:
        for failure in report.failures:
            lines.append(f"OVERLOAD FAIL: {failure}")
    return "\n".join(lines)
