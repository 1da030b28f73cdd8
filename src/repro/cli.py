"""Command-line interface: probe devices, run workloads, compare variants.

Usage (after ``pip install -e .``)::

    python -m repro probe                          # Table I measurements
    python -m repro run --workload MS --policy lru --variant ace
    python -m repro compare --workload WIS --policies lru,cflru
    python -m repro tpcc --warehouses 4 --transactions 300
    python -m repro experiment fig8                # regenerate a paper figure
    python -m repro check                          # invariant-sanitized smoke run
    python -m repro chaos                          # fault-injection durability sweep
    python -m repro crashpoints --smoke            # exhaustive crash-point verification
    python -m repro overload                       # saturation sweep + breaker A/B
    python -m repro cluster --smoke                # sharded aggregate-throughput sweep
    python -m repro failover --smoke               # replicated failover durability sweep

Every command prints a small report and exits 0 on success; the heavy
lifting lives in :mod:`repro.bench`.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.bench.parallel import WORKERS_ENV_VAR
from repro.bench.report import format_table
from repro.bench.runner import VARIANTS, StackConfig, build_stack, run_config
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


def _policies(text: str) -> tuple[str, ...]:
    return _listed("policies", text, "policy", PAPER_POLICIES)


def _variants(text: str) -> tuple[str, ...]:
    return _listed("variants", text, "variant", VARIANTS)


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

    check = sub.add_parser(
        "check",
        help="replay a smoke workload through every policy/variant with "
             "the runtime invariant sanitizer attached",
    )
    check.add_argument("--policies", default=",".join(PAPER_POLICIES),
                       help="comma-separated policy names (default: all)")
    check.add_argument("--device", choices=sorted(_DEVICES), default="pcie")
    check.add_argument("--pages", type=int, default=600)
    check.add_argument("--ops", type=int, default=1500)
    check.add_argument("--seed", type=int, default=42)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection sweep: crash mid-run, recover from the WAL, "
             "and fail if any committed update was lost",
    )
    chaos.add_argument("--rates", default="0,0.001,0.01",
                       help="comma-separated per-operation fault rates")
    chaos.add_argument("--policies", default="lru,clock,cflru",
                       help="comma-separated policy names")
    chaos.add_argument("--variants", default="baseline,ace",
                       help="comma-separated variants (baseline|ace|ace+pf)")
    chaos.add_argument("--device", choices=sorted(_DEVICES), default="pcie")
    chaos.add_argument("--pages", type=int, default=2000)
    chaos.add_argument("--ops", type=int, default=6000)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--smoke", action="store_true",
                       help="small fixed grid for CI (overrides the sweep "
                            "options above)")

    crashpoints = sub.add_parser(
        "crashpoints",
        help="exhaustive crash-consistency verification: enumerate every "
             "write boundary, crash there, recover, and audit the device "
             "against the durable-write ledger byte for byte",
    )
    crashpoints.add_argument("--policies", default=",".join(PAPER_POLICIES),
                             help="comma-separated policy names")
    crashpoints.add_argument("--variants", default="baseline,ace,ace+pf",
                             help="comma-separated variants (baseline|ace|ace+pf)")
    crashpoints.add_argument("--pages", type=int, default=400)
    crashpoints.add_argument("--ops", type=int, default=1500)
    crashpoints.add_argument("--seed", type=int, default=7)
    crashpoints.add_argument("--max-points", type=int, default=64,
                             help="crash points tested per cell (evenly "
                                  "subsampled; 0 = exhaustive)")
    crashpoints.add_argument("--max-redo-crashes", type=int, default=8,
                             help="crash-during-recovery replays per point "
                                  "(0 = every redo write)")
    crashpoints.add_argument("--smoke", action="store_true",
                             help="small fixed sweep for CI (overrides the "
                                  "options above)")

    cluster = sub.add_parser(
        "cluster",
        help="sharded cluster sweep: aggregate throughput per shards x "
             "placement x policy cell plus the imbalance-vs-cut Pareto "
             "table; fails if locality placement stops beating hash",
    )
    cluster.add_argument("--shards", default="1,2,4",
                         help="comma-separated shard counts")
    cluster.add_argument("--placements", default="hash,locality",
                         help="comma-separated placement schemes")
    cluster.add_argument("--policies", default="lru,clock,cflru",
                         help="comma-separated replacement policies")
    cluster.add_argument("--variant", default="baseline",
                         choices=("baseline", "ace", "ace+pf"))
    cluster.add_argument("--pages", type=int, default=20_000)
    cluster.add_argument("--ops", type=int, default=30_000)
    cluster.add_argument("--seed", type=int, default=42)
    cluster.add_argument("--workers", type=int, default=1,
                         help="worker processes for shard replay (1 = "
                              "in-process serial; merged metrics are "
                              "identical either way)")
    cluster.add_argument("--smoke", action="store_true",
                         help="small fixed grid for CI (one policy, small "
                              "trace; overrides the sweep options above)")

    failover = sub.add_parser(
        "failover",
        help="replicated-cluster failover sweep: node-failure rate x "
             "replication factor x policy with the exact cluster-wide "
             "durability audit; fails on any committed loss or phantom "
             "redo",
    )
    failover.add_argument("--rates", default="0,0.5,1",
                          help="comma-separated node-failure rates")
    failover.add_argument("--replication", default="1,2",
                          help="comma-separated replication factors")
    failover.add_argument("--policies", default="lru,clock",
                          help="comma-separated replacement policies")
    failover.add_argument("--variants", default="baseline,ace",
                          help="comma-separated bufferpool variants")
    failover.add_argument("--pages", type=int, default=8_000)
    failover.add_argument("--ops", type=int, default=12_000)
    failover.add_argument("--shards", type=int, default=2)
    failover.add_argument("--seed", type=int, default=42)
    failover.add_argument("--workers", type=int, default=1,
                          help="worker processes for shard replay (1 = "
                               "in-process serial; results are identical "
                               "either way)")
    failover.add_argument("--smoke", action="store_true",
                          help="small fixed grid for CI (one policy, small "
                               "trace; overrides the sweep options above)")

    overload = sub.add_parser(
        "overload",
        help="saturation sweep: goodput vs offered load per shed policy, "
             "plus the circuit-breaker latency A/B; fails on a goodput "
             "cliff or a breaker regression",
    )
    overload.add_argument("--policies", default="lru",
                          help="comma-separated replacement policies")
    overload.add_argument("--ops", type=int, default=6000,
                          help="requests in the sweep trace")
    overload.add_argument("--seed", type=int, default=7)
    overload.add_argument("--smoke", action="store_true",
                          help="small fixed grid for CI (one policy, "
                               "3 multipliers)")

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

    policies = _policies(args.policies)
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


def _cmd_check(args: argparse.Namespace) -> int:
    """Sanitizer smoke run: every policy x variant on a short MS trace.

    Builds each stack with ``sanitize=True`` so the invariant checker
    validates the full bufferpool state after every operation; also
    exercises the pin/flush paths the trace replay does not reach.  The
    same trace is then replayed on an unsanitised twin — which takes the
    executor's inlined paths, where the sanitised stack goes request by
    request — and the two must agree on metrics, residency order and
    dirty set.  Exits non-zero on the first stack that violates an
    invariant or differs from its twin.
    """
    from repro.engine.executor import run_trace
    from repro.errors import SanitizerError

    policies = _policies(args.policies)
    trace = generate_trace(MS, args.pages, args.ops, seed=args.seed)
    options = ExecutionOptions(cpu_us_per_op=10.0)
    failures = 0
    for policy in policies:
        for variant in VARIANTS:
            config = StackConfig(
                profile=_DEVICES[args.device],
                policy=policy,
                variant=variant,
                num_pages=args.pages,
                sanitize=True,
                options=options,
            )
            manager = build_stack(config)
            twin = build_stack(replace(config, sanitize=False))
            label = f"{policy}/{variant}"
            try:
                replayed = [
                    (
                        run_trace(stack, trace, options=options, label=label),
                        stack.resident_pages(),
                        stack.dirty_pages(),
                    )
                    for stack in (manager, twin)
                ]
                # The trace replay never pins or checkpoint-flushes; cover
                # those operations too so their invariants are exercised.
                resident = manager.resident_pages()
                if resident:
                    page = resident[0]
                    manager.pin(page)
                    manager.read_page(page)
                    manager.unpin(page)
                manager.flush_all()
            except SanitizerError as exc:
                failures += 1
                print(f"FAIL {label}: {exc}")
                continue
            if replayed[0] != replayed[1]:
                failures += 1
                print(f"FAIL {label}: inlined replay differs from per-request")
                continue
            checks = manager.sanitizer.checks_run
            print(f"ok   {label}: {checks} operations validated, twin identical")
    if failures:
        print(f"{failures} stack(s) violated invariants or differed from their twin")
        return 1
    print(f"all {len(policies) * len(VARIANTS)} stacks clean")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Durability sweep under fault injection; exit 1 on any lost update."""
    from repro.bench.chaos import run_chaos, smoke_corruption, smoke_grid

    corruption = None
    if args.smoke:
        report = smoke_grid(seed=args.seed)
        corruption = smoke_corruption(seed=args.seed)
    else:
        report = run_chaos(
            rates=_listed("rates", args.rates, "rate", parse=float),
            policies=_policies(args.policies),
            variants=_variants(args.variants),
            profile=_DEVICES[args.device],
            num_pages=args.pages,
            ops=args.ops,
            seed=args.seed,
        )
    rows = []
    for cell in report.cells:
        rows.append([
            "ok" if cell.ok else "FAIL",
            cell.label,
            str(cell.faults_injected),
            str(cell.io_retries),
            str(cell.degraded_writebacks),
            str(cell.failed_writebacks),
            str(cell.checkpoints_skipped),
            str(cell.committed_updates),
            str(cell.lost_updates),
        ])
    print(format_table(
        ["", "cell", "faults", "retries", "degr-wb", "failed-wb",
         "ckpt-skip", "committed", "lost"],
        rows,
        title=f"Chaos sweep (seed={report.seed})",
    ))
    for cell in report.failures:
        reason = cell.error if cell.error else f"{cell.lost_updates} lost"
        print(f"FAIL {cell.label}: {reason}")
    if corruption is not None:
        status = "ok  " if corruption.ok else "FAIL"
        print(
            f"{status} {corruption.label}: "
            f"{corruption.corruptions_injected} silent corruptions injected, "
            f"{corruption.read_path_detections} caught on read "
            f"({corruption.read_path_repairs} healed inline), "
            f"{corruption.scrub_detected} scrubbed, "
            f"{corruption.residual_corruption} residual"
        )
        if not corruption.ok and corruption.error:
            print(f"FAIL {corruption.label}: {corruption.error}")
    if not report.ok or (corruption is not None and not corruption.ok):
        return 1
    print(
        f"all {len(report.cells)} cells durable "
        f"({report.total_faults} faults injected, 0 committed updates lost)"
    )
    return 0


def _cmd_crashpoints(args: argparse.Namespace) -> int:
    """Exhaustive crash-point verification; exit 1 on any audit failure."""
    from repro.verify import run_crashpoints, smoke_report

    if args.smoke:
        report = smoke_report(seed=args.seed)
    else:
        report = run_crashpoints(
            policies=_policies(args.policies),
            variants=_variants(args.variants),
            num_pages=args.pages,
            ops=args.ops,
            seed=args.seed,
            max_points=args.max_points or None,
            max_redo_crashes=args.max_redo_crashes or None,
        )
    rows = []
    for config in report.configs:
        rows.append([
            "ok" if config.ok else "FAIL",
            config.label,
            str(config.boundaries),
            str(config.points_tested),
            str(config.points_skipped),
            str(config.redo_crashes_tested),
            str(sum(o.lost_updates for o in config.outcomes)),
            str(sum(o.phantom_pages for o in config.outcomes)),
        ])
    print(format_table(
        ["", "config", "boundaries", "points", "skipped", "redo-crashes",
         "lost", "phantom"],
        rows,
        title=f"Crash-point verification (seed={report.seed})",
    ))
    for config in report.failures:
        for outcome in config.failures:
            reason = outcome.error or (
                f"{outcome.lost_updates} lost, "
                f"{outcome.phantom_pages} phantom, redo replays "
                f"{outcome.redo_crashes_ok}/{outcome.redo_crashes_tested}"
            )
            print(f"FAIL {config.label} {outcome.point.label}: {reason}")
    if not report.ok:
        return 1
    print(
        f"all {len(report.configs)} configs crash-consistent "
        f"({report.points_tested} crash points, "
        f"{report.redo_crashes_tested} recovery re-crashes, "
        f"0 committed updates lost, 0 phantom pages)"
    )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Cluster sweep; exit 1 if the locality-placement claim fails."""
    from repro.bench.cluster import (
        DEFAULT_PLACEMENTS,
        format_report,
        format_wall,
        run_sweep,
        smoke_grid,
    )

    if args.smoke:
        report = smoke_grid(seed=args.seed)
    else:
        report = run_sweep(
            shards=_listed("shards", args.shards, "shard count", parse=int),
            placements=_listed(
                "placements", args.placements, "placement", DEFAULT_PLACEMENTS
            ),
            policies=_policies(args.policies),
            variant=args.variant,
            num_pages=args.pages,
            num_ops=args.ops,
            seed=args.seed,
            workers=args.workers,
        )
    print(format_report(report))
    print(format_wall(report), file=sys.stderr)
    for failure in report.placement_failures:
        print(f"FAIL {failure}")
    if not report.ok:
        return 1
    print(f"all {len(report.cells)} cells swept; placement claim holds")
    return 0


def _cmd_failover(args: argparse.Namespace) -> int:
    """Failover sweep; exit 1 on committed loss, phantoms, or a missed
    scenario."""
    from repro.bench.failover import format_report, run_sweep, smoke_grid

    if args.smoke:
        report = smoke_grid(seed=args.seed)
    else:
        report = run_sweep(
            rates=_listed("rates", args.rates, "rate", parse=float),
            replication=_listed(
                "replication", args.replication, "replication factor", parse=int
            ),
            policies=_policies(args.policies),
            variants=_variants(args.variants),
            num_pages=args.pages,
            num_ops=args.ops,
            num_shards=args.shards,
            seed=args.seed,
            workers=args.workers,
        )
    print(format_report(report))
    for failure in report.failures:
        print(f"FAIL {failure}")
    if not report.ok:
        return 1
    print(
        f"all {len(report.cells)} cells swept; zero committed loss, "
        "zero phantom redo"
    )
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    """Overload sweep + breaker A/B; exit 1 on a cliff or breaker loss."""
    from repro.bench.overload import format_report, run_overload, smoke_grid

    if args.smoke:
        report = smoke_grid(seed=args.seed)
    else:
        report = run_overload(
            policies=_policies(args.policies), ops=args.ops, seed=args.seed
        )
    print(format_report(report))
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
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "crashpoints": _cmd_crashpoints,
    "cluster": _cmd_cluster,
    "failover": _cmd_failover,
    "overload": _cmd_overload,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)
