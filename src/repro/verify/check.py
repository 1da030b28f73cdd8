"""Sanitizer smoke run: every policy x variant on a short MS trace.

Each stack is built with ``sanitize=True``, so the invariant checker
validates the full bufferpool state after every operation; the run also
exercises the pin/flush paths the trace replay does not reach.  The same
trace is then replayed on an unsanitised twin — which takes the executor's
inlined paths, where the sanitised stack goes request by request — and the
two must agree on metrics, residency order and dirty set.
``python -m repro check`` prints :func:`format_report` and exits non-zero
on a stack that violates an invariant or differs from its twin.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench.runner import VARIANTS, StackConfig, build_stack
from repro.engine.executor import ExecutionOptions, run_trace
from repro.errors import SanitizerError
from repro.policies.registry import PAPER_POLICIES
from repro.storage.profiles import PCIE_SSD
from repro.workloads.synthetic import MS, generate_trace

__all__ = ["CheckReport", "StackCheck", "format_report", "run_sweep"]


@dataclass(frozen=True)
class StackCheck:
    """One (policy, variant) stack: the operations its sanitizer validated,
    or why it failed."""

    label: str
    checks: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CheckReport:
    """Every stack of one sanitizer sweep, in policy x variant order."""

    stacks: tuple[StackCheck, ...]

    @property
    def failures(self) -> tuple[StackCheck, ...]:
        return tuple(stack for stack in self.stacks if not stack.ok)

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_stack(config: StackConfig, trace) -> StackCheck:
    manager = build_stack(config)
    twin = build_stack(replace(config, sanitize=False))
    label = config.label
    try:
        replayed = [
            (
                run_trace(stack, trace, options=config.options, label=label),
                stack.resident_pages(),
                stack.dirty_pages(),
            )
            for stack in (manager, twin)
        ]
        # The trace replay never pins or checkpoint-flushes; cover those
        # operations too so their invariants are exercised.
        resident = manager.resident_pages()
        if resident:
            page = resident[0]
            manager.pin(page)
            manager.read_page(page)
            manager.unpin(page)
        manager.flush_all()
    except SanitizerError as exc:
        return StackCheck(label, 0, str(exc))
    if replayed[0] != replayed[1]:
        return StackCheck(label, 0, "inlined replay differs from per-request")
    return StackCheck(label, manager.sanitizer.checks_run)


def run_sweep(
    policies: tuple[str, ...] = PAPER_POLICIES,
    num_pages: int = 600,
    ops: int = 1_500,
    seed: int = 42,
) -> CheckReport:
    """Check every policy x variant stack on one MS trace."""
    trace = generate_trace(MS, num_pages, ops, seed=seed)
    options = ExecutionOptions(cpu_us_per_op=10.0)
    return CheckReport(tuple(
        _check_stack(
            StackConfig(
                profile=PCIE_SSD, policy=policy, variant=variant,
                num_pages=num_pages, sanitize=True, options=options,
            ),
            trace,
        )
        for policy in policies
        for variant in VARIANTS
    ))


def format_report(report: CheckReport) -> str:
    """The ``check`` verdict: one line per stack and the closing line."""
    lines = [
        f"ok   {stack.label}: {stack.checks} operations validated, twin identical"
        if stack.ok else f"FAIL {stack.label}: {stack.error}"
        for stack in report.stacks
    ]
    if report.ok:
        lines.append(f"all {len(report.stacks)} stacks clean")
    else:
        lines.append(
            f"{len(report.failures)} stack(s) violated invariants or differed "
            "from their twin"
        )
    return "\n".join(lines)
