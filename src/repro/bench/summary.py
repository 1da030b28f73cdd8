"""Assemble EXPERIMENTS.md from the persisted bench reports.

Each bench writes its rendered rows under ``results/``; this module stitches
those files into a single markdown document with the paper's reference
numbers alongside, so `EXPERIMENTS.md` always reflects the latest run:

    python -m repro.bench.summary [output.md]
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.report import results_dir

__all__ = ["EXPERIMENT_SECTIONS", "assemble_experiments_md"]

#: (results file stem, section title, what the paper reports) per experiment.
EXPERIMENT_SECTIONS: tuple[tuple[str, str, str], ...] = (
    (
        "table1_devices",
        "Table I — device characteristics",
        "Paper (measured on hardware): Optane α=1.1 k_r=6 k_w=5; PCIe α=2.8 "
        "k_r=80 k_w=8; SATA α=1.5 k_r=25 k_w=9; Virtual α=2.0 k_r=11 k_w=19. "
        "Our probe measures the simulated devices through their public API "
        "and must recover the same values.",
    ),
    (
        "table2_workloads",
        "Table II — synthetic workloads",
        "Paper: MS 50/50 r/w @ 90/10 locality, WIS 10/90 @ 90/10, RIS 90/10 "
        "@ 90/10, MU 50/50 uniform. Generated mixes are validated "
        "empirically.",
    ),
    (
        "fig2_ideal_speedup",
        "Figure 2 — ideal speedup vs asymmetry",
        "Paper: ACE's ideal benefit over an LRU baseline grows with α, up "
        "to ~2.5x. Our closed-form model and emulated-device measurements "
        "must agree and land in the same range.",
    ),
    (
        "fig8_synthetic_runtime",
        "Figures 8a–d — synthetic workload runtime (PCIe SSD)",
        "Paper: ACE+PF cuts runtime by 21.8–26.1% (MS), 28.8–32.1% (WIS), "
        "8.1–13.9% (RIS), 14.5–15.7% (MU). Our gains are larger in absolute "
        "terms (fully synchronous I/O path; see the fidelity note) but must "
        "preserve the ordering WIS > MS > RIS and ACE never losing.",
    ),
    (
        "table3_overheads",
        "Table III — buffer-miss / write overheads",
        "Paper: |Δmiss| ≤ 0.009%, Δl-writes ≤ 0.14%, Δp-writes ≤ 0.17%. At "
        "our (much smaller) pool the re-dirtying effect is proportionally "
        "larger but stays in low single digits — negligible next to the "
        "runtime gains.",
    ),
    (
        "fig9_writes_over_time",
        "Figure 9 — logical vs physical writes over time",
        "Paper: physical writes ≈5–6x logical (GC + wear-leveling); ACE and "
        "baseline write counts nearly identical while ACE runs up to 1.35x "
        "faster.",
    ),
    (
        "fig10ab_low_asymmetry",
        "Figures 10a–b — low-asymmetry devices",
        "Paper: speedups 1.12–1.28x on the SATA SSD and 1.14–1.34x on the "
        "Virtual SSD — smaller than PCIe but always >1.",
    ),
    (
        "fig10cd_rw_ratio",
        "Figures 10c–d — read/write ratio sweep",
        "Paper: 1.57x at write-only (Clock Sweep), 1.34x at 50/50, "
        "vanishing towards read-only where ACE equals the baseline.",
    ),
    (
        "fig10ef_memory_pressure",
        "Figures 10e–f — memory pressure",
        "Paper: speedup peaks around a 6% pool, declines for larger pools "
        "(fewer evictions) and slightly for tiny pools (read-dominated "
        "misses); e.g. ACE-CFLRU 1.29x at 2% vs 1.25x at 10%.",
    ),
    (
        "fig10g_nw_sweep",
        "Figure 10g — write-back concurrency sweep",
        "Paper: speedup climbs with n_w, peaks at n_w = k_w = 8, then "
        "declines; already substantial (1.2–1.3x) at n_w ∈ {4, 6}.",
    ),
    (
        "fig10h_continuum",
        "Figure 10h — (α, n_w) continuum",
        "Paper: ideal speedup grows along both axes; maximum at the "
        "highest asymmetry with n_w = k_w.",
    ),
    (
        "fig10i_device_comparison",
        "Figure 10i — per-device gains vs write intensity",
        "Paper (write-only): PCIe 1.63x > Virtual 1.48x > SATA 1.41x > "
        "Optane 1.33x — ordering by asymmetry.",
    ),
    (
        "fig11_tpcc",
        "Figure 11 — TPC-C transactions",
        "Paper: mix 1.27–1.32x; Delivery up to 1.51x; no gain for the "
        "read-only OrderStatus and StockLevel.",
    ),
    (
        "fig12_tpcc_scaling",
        "Figure 12 — TPC-C scaling",
        "Paper: tpmC gain persists as warehouses grow: 1.33x at 125 "
        "warehouses, 1.24x at 1000.",
    ),
    (
        "ablation_prefetch_placement",
        "Ablation — prefetch placement (extension)",
        "LRU-end placement (paper's choice) must not lose to MRU placement "
        "on a workload with poor predictions.",
    ),
    (
        "ablation_cflru_window",
        "Ablation — CFLRU window size (extension)",
        "ACE helps at every window size; it wraps the policy instead of "
        "retuning it.",
    ),
    (
        "ablation_writeback_trigger",
        "Ablation — write-back trigger (extension)",
        "Demand-driven batching (ACE) vs periodic batched background "
        "flushing vs stock baseline.",
    ),
    (
        "ablation_ne_sweep",
        "Ablation — eviction width n_e (extension)",
        "Wider eviction costs locality; the paper picked n_e = k_w.",
    ),
    (
        "ablation_adaptive",
        "Ablation — adaptive n_w tuning (extension)",
        "The online tuner must converge to k_w and land near the oracle.",
    ),
    (
        "multiclient",
        "Extension — multi-client interleaving",
        "Interleaving 20 clients dilutes locality; ACE's gain persists.",
    ),
    (
        "latency_distribution",
        "Extension — request latency distribution",
        "Beyond the paper's total-runtime metric: ACE shifts cost from the "
        "many dirty-victim misses onto the few batch-triggering requests, "
        "so mean/p95 drop while the tail stays bounded by one batch.",
    ),
    (
        "ycsb",
        "Extension — YCSB core workloads",
        "Complementary access patterns (zipfian, read-latest, scans, RMW): "
        "gains scale with write intensity, read-only C is unchanged.",
    ),
    (
        "partitioned",
        "Extension — partitioned bufferpool",
        "Sharding the pool (as latch-partitioned engines do) costs a little "
        "hit ratio under skew; ACE's batching works unchanged inside each "
        "partition.",
    ),
    (
        "replication",
        "Extension — replication methodology",
        "The paper averages 5 iterations and reports std < 5%; repeated "
        "seeds through the simulator reproduce that stability.",
    ),
)

_HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (§VI), regenerated by
`pytest benchmarks/ --benchmark-only` on the simulated substrate.  Each
section quotes what the paper reports on its hardware, followed by this
repository's measured output (copied verbatim from `results/`).

**How to read the numbers.** Absolute runtimes are virtual-clock seconds,
not PostgreSQL wall-clock.  Because the simulator charges full device
latency synchronously on a single request stream, ACE's speedups land near
the paper's *ideal* analysis (Figure 2) rather than its end-to-end
PostgreSQL numbers, which are diluted by OS caching and 20-way client
overlap.  Every *comparative* claim is expected to hold exactly: ACE never
loses; gains order WIS > MS > RIS and grow with asymmetry and memory
pressure; the n_w optimum sits at k_w; read-only workloads are unchanged;
miss and write deltas stay negligible.  The bench suite asserts these
shapes on every run.

**Scale substitutions.** The paper runs a 15 GB pgbench database and a
50 GB TPC-C (500 warehouses) for 10 minutes per configuration; benches use
scaled-down page counts/op counts with identical pool:data:hot-set
proportions (6 % pool, 90/10 skew) and a TPC-C with reduced per-warehouse
cardinalities (`row_scale`), preserving relative table footprints and the
transaction mix.  StockLevel caps its stock probes at 60 per transaction
(spec: up to 200) to bound trace sizes.

**Known deviations (documented, asserted around).**

1. *Figure 10i, Virtual SSD*: the paper orders write-only gains strictly by
   asymmetry (PCIe 1.63x > Virtual 1.48x).  In our model the Virtual SSD's
   measured k_w = 19 (an IOPS-throttling artifact the paper itself notes
   under Table I) lets ACE amortize writes over a larger batch than PCIe's
   k_w = 8, so Virtual lands at or slightly above PCIe.  The asymmetry
   ordering holds among the NAND devices (PCIe > SATA > Optane) and the
   Virtual SSD still beats every lower-asymmetry device.
2. *Figure 12, absolute tpmC*: the paper sees tpmC decline mildly with data
   volume ("overhead of managing a high volume of data" — CPU-side costs
   the simulator deliberately does not model).  Our absolute tpmC drifts
   slightly the other way; the figure's headline — ACE's gain persisting
   across scales — reproduces.
3. *Magnitudes*: our MS/WIS gains (40-50 %) exceed the paper's end-to-end
   PostgreSQL numbers (20-32 %) and sit near its ideal analysis, as the
   fidelity note above explains; RIS gains (13-19 %) bracket the paper's
   8-14 %.
"""


def assemble_experiments_md(output: str | Path = "EXPERIMENTS.md") -> Path:
    """Build the experiments document from ``results/``; returns the path."""
    directory = results_dir()
    parts = [_HEADER]
    missing: list[str] = []
    for stem, title, paper_summary in EXPERIMENT_SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"{paper_summary}\n")
        report = directory / f"{stem}.txt"
        if report.exists():
            parts.append("```")
            parts.append(report.read_text().rstrip())
            parts.append("```")
        else:
            missing.append(stem)
            parts.append(
                "*(no measured output yet — run "
                f"`pytest benchmarks/ --benchmark-only` to produce "
                f"results/{stem}.txt)*"
            )
    if missing:
        parts.append(
            "\n---\n"
            f"Sections awaiting results: {', '.join(missing)}."
        )
    path = Path(output)
    path.write_text("\n".join(parts) + "\n")
    return path
