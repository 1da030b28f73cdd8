"""Command-line interface: probe devices, run workloads, compare variants.

Usage (after ``pip install -e .``)::

    python -m repro probe                          # Table I measurements
    python -m repro run --workload MS --policy lru --variant ace
    python -m repro compare --workload WIS --policies lru,cflru
    python -m repro tpcc --warehouses 4 --transactions 300
    python -m repro experiment fig8                # regenerate a paper figure

The six verdict commands each run one fixed sweep, print its verdict and
exit non-zero when the verdict fails.  ``--smoke`` runs the small grid CI
diffs against ``results/verdicts/``; ``--workers`` spreads shard replay
over processes (the results are identical at any count)::

    python -m repro check                          # invariant-sanitized stacks
    python -m repro chaos [--smoke]                # fault-injection durability sweep
    python -m repro crashpoints [--smoke] [--max-points N]  # crash-point verification
    python -m repro overload [--smoke]             # saturation sweep + breaker A/B
    python -m repro cluster [--smoke] [--workers N]   # sharded placement sweep
    python -m repro failover [--smoke] [--workers N]  # replicated failover sweep

Every command prints a small report and exits 0 on success; the heavy
lifting lives in :mod:`repro.bench` and :mod:`repro.verify`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.bench import chaos, cluster, failover, overload
from repro.bench.parallel import WORKERS_ENV_VAR
from repro.bench.report import format_table
from repro.bench.runner import StackConfig, build_stack, run_config
from repro.engine.executor import ExecutionOptions, run_transactions
from repro.engine.metrics import speedup
from repro.policies.registry import PAPER_POLICIES, display_name
from repro.storage.probe import probe_device
from repro.storage.profiles import (
    OPTANE_SSD,
    PAPER_DEVICES,
    PCIE_SSD,
    SATA_SSD,
    VIRTUAL_SSD,
    DeviceProfile,
    emulated_profile,
)
from repro.verify import check, crashpoints
from repro.workloads.synthetic import MS, MU, RIS, WIS, generate_trace, rw_ratio_spec
from repro.workloads.tpcc.driver import TPCCWorkload

__all__ = ["main", "build_parser"]

_DEVICES: dict[str, DeviceProfile] = {
    "optane": OPTANE_SSD,
    "pcie": PCIE_SSD,
    "sata": SATA_SSD,
    "virtual": VIRTUAL_SSD,
}

_WORKLOADS = {"MS": MS, "WIS": WIS, "RIS": RIS, "MU": MU}

#: Verdict command -> its module: ``smoke_grid()`` (all but ``check``),
#: ``run_sweep()``, and ``format_report(report)``, the command's stdout.
_VERDICTS = {
    "check": check,
    "chaos": chaos,
    "crashpoints": crashpoints,
    "cluster": cluster,
    "failover": failover,
    "overload": overload,
}


def _listed(option: str, text: str, noun: str, known=None, parse=str) -> tuple:
    """The items of a comma-separated ``--option`` value, each through
    ``parse``; exits before any work on an item that does not parse or is
    not ``known``, and on a list that names no ``noun``."""
    items, unknown = [], []
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            item = parse(part)
        except ValueError:
            item = None
        if item is None or (known is not None and item not in known):
            unknown.append(part)
        items.append(item)
    if unknown:
        raise SystemExit(f"unknown {option}: {', '.join(unknown)}")
    if not items:
        raise SystemExit(f"--{option} names no {noun}: {text!r}")
    return tuple(items)


def _resolve_device(args: argparse.Namespace) -> DeviceProfile:
    if getattr(args, "alpha", None) is not None:
        return emulated_profile(alpha=args.alpha, k_w=args.k_w)
    return _DEVICES[args.device]


def _resolve_workload(name: str, read_fraction: float | None):
    if read_fraction is not None:
        return rw_ratio_spec(read_fraction)
    try:
        return _WORKLOADS[name.upper()]
    except KeyError:
        known = ", ".join(_WORKLOADS)
        raise SystemExit(f"unknown workload {name!r}; known: {known}") from None


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ACE bufferpool reproduction: probe, run, compare, tpcc.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    probe = sub.add_parser("probe", help="measure alpha/k of the devices")
    probe.add_argument(
        "--device", choices=sorted(_DEVICES) + ["all"], default="all"
    )

    def add_run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="MS", help="MS|WIS|RIS|MU")
        p.add_argument("--read-fraction", type=float, default=None,
                       help="override: custom read fraction with 90/10 skew")
        p.add_argument("--device", choices=sorted(_DEVICES), default="pcie")
        p.add_argument("--alpha", type=float, default=None,
                       help="use an emulated device with this asymmetry")
        p.add_argument("--k-w", type=int, default=8,
                       help="write concurrency for the emulated device")
        p.add_argument("--pages", type=int, default=10_000)
        p.add_argument("--ops", type=int, default=20_000)
        p.add_argument("--pool", type=float, default=0.06,
                       help="bufferpool size as a fraction of the data")
        p.add_argument("--n-w", type=int, default=None)
        p.add_argument("--cpu-us", type=float, default=10.0)
        p.add_argument("--seed", type=int, default=42)

    run = sub.add_parser("run", help="run one workload/policy/variant")
    add_run_options(run)
    run.add_argument("--policy", choices=PAPER_POLICIES, default="lru")
    run.add_argument(
        "--variant", choices=("baseline", "ace", "ace+pf"), default="ace"
    )

    compare = sub.add_parser(
        "compare", help="baseline vs ACE vs ACE+PF across policies"
    )
    add_run_options(compare)
    compare.add_argument(
        "--policies", default=",".join(PAPER_POLICIES),
        help="comma-separated policy names",
    )
    compare.add_argument("--workers", type=int, default=None,
                         help="worker processes for the comparison grid "
                              "(default: REPRO_WORKERS env or all CPUs)")

    tpcc = sub.add_parser("tpcc", help="run the TPC-C mix")
    tpcc.add_argument("--warehouses", type=int, default=4)
    tpcc.add_argument("--transactions", type=int, default=300)
    tpcc.add_argument("--row-scale", type=float, default=0.05)
    tpcc.add_argument("--policy", choices=PAPER_POLICIES, default="clock")
    tpcc.add_argument("--device", choices=sorted(_DEVICES), default="pcie")
    tpcc.add_argument("--cpu-us", type=float, default=10.0)
    tpcc.add_argument("--seed", type=int, default=42)

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure"
    )
    experiment.add_argument(
        "name",
        help="table1|table2|table3|fig2|fig8|fig9|fig10ab|fig10cd|fig10ef|"
             "fig10g|fig10h|fig10i|fig11|fig12",
    )
    experiment.add_argument("--workers", type=int, default=None,
                            help="worker processes for the experiment grid "
                                 "(default: REPRO_WORKERS env or all CPUs)")

    summary = sub.add_parser(
        "summary", help="assemble EXPERIMENTS.md from results/"
    )
    summary.add_argument("--output", default="EXPERIMENTS.md")

    verdicts = {
        "check": "replay every policy/variant with the runtime invariant "
                 "sanitizer attached and against its unsanitised twin",
        "chaos": "fault-injection sweep: crash mid-run, recover from the "
                 "WAL, and fail if any committed update was lost",
        "crashpoints": "exhaustive crash-consistency verification: "
                       "enumerate every write boundary, crash there, "
                       "recover, and audit the device against the "
                       "durable-write ledger byte for byte",
        "cluster": "sharded cluster sweep: aggregate throughput per shards "
                   "x placement x policy cell plus the imbalance-vs-cut "
                   "Pareto table; fails if locality placement stops "
                   "beating hash",
        "failover": "replicated-cluster failover sweep: node-failure rate x "
                    "replication factor x policy with the exact "
                    "cluster-wide durability audit; fails on any committed "
                    "loss or phantom redo",
        "overload": "saturation sweep: goodput vs offered load per shed "
                    "policy, plus the circuit-breaker latency A/B; fails on "
                    "a goodput cliff or a breaker regression",
    }
    for name, text in verdicts.items():
        verdict = sub.add_parser(name, help=text)
        if name != "check":
            verdict.add_argument("--smoke", action="store_true",
                                 help="the small fixed grid CI runs")
        if name in ("cluster", "failover"):
            verdict.add_argument("--workers", type=int, default=1,
                                 help="worker processes for shard replay "
                                      "(1 = in-process serial; results are "
                                      "identical either way)")
        if name == "crashpoints":
            verdict.add_argument("--max-points", type=int, default=64,
                                 help="crash points tested per cell of the "
                                      "full sweep (evenly subsampled; 0 = "
                                      "exhaustive)")

    return parser


def _cmd_probe(args: argparse.Namespace) -> int:
    profiles: Sequence[DeviceProfile]
    if args.device == "all":
        profiles = PAPER_DEVICES
    else:
        profiles = [_DEVICES[args.device]]
    rows = []
    for profile in profiles:
        measured = probe_device(profile, max_batch=96)
        rows.append(
            [measured.name, f"{measured.alpha:.2f}", measured.k_r, measured.k_w]
        )
    print(format_table(["Device", "alpha", "k_r", "k_w"], rows,
                       title="Measured device characteristics"))
    return 0


def _stack_config(args: argparse.Namespace, policy: str, variant: str) -> StackConfig:
    return StackConfig(
        profile=_resolve_device(args),
        policy=policy,
        variant=variant,
        num_pages=args.pages,
        pool_fraction=args.pool,
        n_w=args.n_w,
        options=ExecutionOptions(cpu_us_per_op=args.cpu_us),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _resolve_workload(args.workload, args.read_fraction)
    trace = generate_trace(spec, args.pages, args.ops, seed=args.seed)
    config = _stack_config(args, args.policy, args.variant)
    metrics = run_config(config, trace)
    print(metrics.summary())
    print(f"  hit ratio        {metrics.buffer.hit_ratio:8.2%}")
    print(f"  mean write batch {metrics.buffer.mean_writeback_batch:8.1f}")
    print(f"  ops/s (virtual)  {metrics.ops_per_second:8.0f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.runner import compare_policies

    policies = _listed("policies", args.policies, "policy", PAPER_POLICIES)
    spec = _resolve_workload(args.workload, args.read_fraction)
    trace = generate_trace(spec, args.pages, args.ops, seed=args.seed)
    results = compare_policies(
        _resolve_device(args),
        policies,
        trace,
        num_pages=args.pages,
        pool_fraction=args.pool,
        n_w=args.n_w,
        options=ExecutionOptions(cpu_us_per_op=args.cpu_us),
        workers=args.workers,
    )
    rows = []
    for policy in policies:
        base = results[(policy, "baseline")]
        ace = results[(policy, "ace")]
        ace_pf = results[(policy, "ace+pf")]
        rows.append(
            [
                display_name(policy),
                f"{base.runtime_s:.3f}",
                f"{ace.runtime_s:.3f}",
                f"{ace_pf.runtime_s:.3f}",
                f"{speedup(base, ace):.2f}x",
                f"{speedup(base, ace_pf):.2f}x",
            ]
        )
    print(format_table(
        ["Policy", "base (s)", "ACE (s)", "ACE+PF (s)", "ACE", "ACE+PF"],
        rows,
        title=f"{spec.name} on {_resolve_device(args).name}",
    ))
    return 0


def _cmd_tpcc(args: argparse.Namespace) -> int:
    workload = TPCCWorkload(
        warehouses=args.warehouses, row_scale=args.row_scale, seed=args.seed
    )
    stream = list(workload.transaction_stream(args.transactions))
    options = ExecutionOptions(cpu_us_per_op=args.cpu_us)
    rows = []
    results = {}
    for variant in ("baseline", "ace+pf"):
        config = StackConfig(
            profile=_DEVICES[args.device],
            policy=args.policy,
            variant=variant,
            num_pages=workload.total_pages,
            options=options,
        )
        manager = build_stack(config)
        metrics = run_transactions(manager, stream, options=options,
                                   label=variant)
        results[variant] = metrics
        rows.append(
            [variant, f"{metrics.runtime_s:.3f}", f"{metrics.tpmc:.0f}",
             f"{metrics.miss_ratio:.3f}"]
        )
    print(format_table(
        ["Variant", "runtime (s)", "tpmC", "miss ratio"], rows,
        title=f"TPC-C mix: {args.warehouses} warehouses, "
              f"{args.transactions} transactions",
    ))
    print(f"speedup: {speedup(results['baseline'], results['ace+pf']):.2f}x")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.bench import experiments

    table = {
        "table1": experiments.table1_device_characteristics,
        "table2": experiments.table2_workload_definitions,
        "table3": experiments.table3_overheads,
        "fig2": experiments.fig2_ideal_speedup,
        "fig8": experiments.fig8_synthetic_runtime,
        "fig9": experiments.fig9_writes_over_time,
        "fig10ab": experiments.fig10ab_low_asymmetry_devices,
        "fig10cd": experiments.fig10cd_rw_ratio_sweep,
        "fig10ef": experiments.fig10ef_memory_pressure,
        "fig10g": experiments.fig10g_nw_sweep,
        "fig10h": experiments.fig10h_asymmetry_continuum,
        "fig10i": experiments.fig10i_device_comparison,
        "fig11": experiments.fig11_tpcc_transactions,
        "fig12": experiments.fig12_tpcc_scaling,
    }
    name = args.name.lower()
    if name not in table:
        known = ", ".join(sorted(table))
        raise SystemExit(f"unknown experiment {args.name!r}; known: {known}")
    if args.workers is None:
        table[name]()
        return 0
    # Experiments resolve workers via REPRO_WORKERS (some take no
    # workers parameter, e.g. the stateful fig9), so the flag is
    # threaded through the environment for the duration of the run.
    previous = os.environ.get(WORKERS_ENV_VAR)
    os.environ[WORKERS_ENV_VAR] = str(args.workers)
    try:
        table[name]()
    finally:
        if previous is None:
            del os.environ[WORKERS_ENV_VAR]
        else:
            os.environ[WORKERS_ENV_VAR] = previous
    return 0


def _cmd_verdict(args: argparse.Namespace) -> int:
    """Run a verdict command's sweep, print its verdict, exit 1 if it fails."""
    module = _VERDICTS[args.command]
    options = {
        name: value for name, value in vars(args).items()
        if name in ("workers", "max_points")
    }
    if getattr(args, "smoke", False):
        options.pop("max_points", None)  # the smoke grid sets its own bound
        report = module.smoke_grid(**options)
    else:
        report = module.run_sweep(**options)
    print(module.format_report(report))
    if module is cluster:
        print(cluster.format_wall(report), file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_summary(args: argparse.Namespace) -> int:
    from repro.bench.summary import assemble_experiments_md

    path = assemble_experiments_md(args.output)
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "probe": _cmd_probe,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "tpcc": _cmd_tpcc,
    "experiment": _cmd_experiment,
    "summary": _cmd_summary,
    **dict.fromkeys(_VERDICTS, _cmd_verdict),
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)
