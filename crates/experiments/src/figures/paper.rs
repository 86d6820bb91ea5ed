//! The paper's tables and figures, the §4.5 hyperparameter sweep, and the
//! DESIGN.md §4 ablations.

use super::{FigureOutput, Table};
use crate::runner::Job;
use crate::{design_grid, f3, pct, run_grid, Args};
use cosmos_cache::{PolicyKind, PrefetcherKind};
use cosmos_common::json::{json, Map, Value};
use cosmos_core::{overhead::storage_overhead, smat::smat, Design, SimConfig, SimStats};
use cosmos_rl::params::{CtrRewards, DataRewards, RlParams};
use cosmos_workloads::graph::{GraphKernel, LayoutMode};
use cosmos_workloads::ml::MlModel;
use cosmos_workloads::Workload;

/// Table 1: the reward values and hyperparameters COSMOS ships with.
pub(super) fn table1(_args: &Args) -> FigureOutput {
    let d = RlParams::data_defaults();
    let c = RlParams::ctr_defaults();
    let dr = DataRewards::table1();
    let cr = CtrRewards::table1();
    let mut table = Table::new(&["parameter", "value"]);
    table.rows = [
        ("R_D_mo", dr.r_mo),
        ("R_D_mi", dr.r_mi),
        ("R_D_ho", dr.r_ho),
        ("R_D_hi", dr.r_hi),
        ("R_C_hg", cr.r_hg),
        ("R_C_hb", cr.r_hb),
        ("R_C_mg", cr.r_mg),
        ("R_C_mb", cr.r_mb),
        ("R_C_eg", cr.r_eg),
        ("R_C_eb", cr.r_eb),
        ("alpha_D", d.alpha),
        ("gamma_D", d.gamma),
        ("epsilon_D", d.epsilon),
        ("alpha_C", c.alpha),
        ("gamma_C", c.gamma),
        ("epsilon_C", c.epsilon),
    ]
    .map(|(name, value)| vec![name.to_string(), value.to_string()])
    .to_vec();
    FigureOutput {
        report: table.report("Table 1: reward values and hyperparameters", ""),
        json: json!({
            "data": {"alpha": d.alpha, "gamma": d.gamma, "epsilon": d.epsilon,
                     "r_mo": dr.r_mo, "r_mi": dr.r_mi, "r_ho": dr.r_ho, "r_hi": dr.r_hi},
            "ctr": {"alpha": c.alpha, "gamma": c.gamma, "epsilon": c.epsilon,
                    "r_hg": cr.r_hg, "r_hb": cr.r_hb, "r_mg": cr.r_mg,
                    "r_mb": cr.r_mb, "r_eg": cr.r_eg, "r_eb": cr.r_eb},
        }),
    }
}

/// Table 2: COSMOS storage overhead breakdown.
///
/// Computed from the configuration by the overhead model; paper-reported
/// values are printed alongside (the paper rounds per component and
/// assumes a larger LCR line budget — see EXPERIMENTS.md).
pub(super) fn table2(_args: &Args) -> FigureOutput {
    let cfg = SimConfig::paper_default(Design::Cosmos).with_paper_ctr_sizes();
    let o = storage_overhead(&cfg);
    let paper_kb = [
        ("Data Q-Table", 32),
        ("CTR Q-Table", 32),
        ("CET", 66),
        ("LCR-CTR cache", 17),
    ];

    let mut table = Table::new(&["component", "details", "computed", "paper"]);
    for c in &o.components {
        let paper = paper_kb
            .iter()
            .find(|(n, _)| *n == c.name)
            .map(|(_, kb)| *kb)
            .unwrap_or(0);
        table.row(
            vec![
                c.name.to_string(),
                format!("{} x {} bits", c.entries, c.bits_per_entry),
                format!("{:.1} KB", c.bytes as f64 / 1024.0),
                format!("{paper} KB"),
            ],
            json!({
                "name": c.name,
                "entries": c.entries,
                "bits_per_entry": c.bits_per_entry,
                "bytes": c.bytes,
                "paper_kb": paper,
            }),
        );
    }
    table.rows.push(vec![
        "**Total**".into(),
        String::new(),
        format!("{:.1} KB", o.total_kib()),
        "147 KB".into(),
    ]);
    FigureOutput {
        report: table.report("Table 2: storage overhead of COSMOS", ""),
        json: json!({"total_bytes": o.total_bytes, "paper_total_kb": 147, "components": (table.results)}),
    }
}

/// Table 3: the full simulation configuration, as the simulator actually
/// runs it (serialized from `SimConfig`).
pub(super) fn table3(_args: &Args) -> FigureOutput {
    let mut report = String::from("## Table 3: simulation settings (paper defaults)\n\n");
    for design in [Design::Np, Design::MorphCtr, Design::Cosmos] {
        let cfg = SimConfig::paper_default(design);
        report.push_str(&format!(
            "### {design}\n\n```json\n{}\n```\n\n",
            cfg.to_json().pretty()
        ));
    }
    FigureOutput {
        report,
        json: SimConfig::paper_default(Design::Cosmos).to_json(),
    }
}

/// Figure 2: memory traffic (normalized to NP) and CTR cache miss rate,
/// non-protected vs. secure memory (MorphCtr), across the graph kernels.
pub(super) fn fig02(args: &Args) -> FigureOutput {
    let grid = design_grid(
        args,
        &Workload::graph_suite(),
        [Design::Np, Design::MorphCtr],
    );
    let mut table = Table::new(&[
        "kernel", "data_rd", "data_wr", "ctr", "mt", "mac", "reenc", "wasted", "total/NP",
        "CTR miss",
    ]);
    for (w, [np, mc]) in &grid {
        let t = &mc.traffic;
        let np_total = np.traffic.total() as f64;
        let norm = |x: u64| x as f64 / np_total;
        table.row(
            vec![
                w.name().to_string(),
                f3(norm(t.data_reads)),
                f3(norm(t.data_writes)),
                f3(norm(t.ctr_reads + t.ctr_writes)),
                f3(norm(t.mt_reads + t.mt_writes)),
                f3(norm(t.mac_reads + t.mac_writes)),
                f3(norm(t.reencrypt_writes)),
                f3(norm(t.wasted_total())),
                f3(norm(t.total())),
                pct(mc.ctr_miss_rate()),
            ],
            json!({
                "kernel": w.name(),
                "np_traffic_lines": np.traffic.total(),
                "morphctr": {
                    "data_reads": t.data_reads,
                    "data_writes": t.data_writes,
                    "ctr": t.ctr_reads + t.ctr_writes,
                    "mt": t.mt_reads + t.mt_writes,
                    "mac": t.mac_reads + t.mac_writes,
                    "reencrypt": t.reencrypt_writes,
                    "wasted": t.wasted_total(),
                    "total_norm_to_np": norm(t.total()),
                    "ctr_miss_rate": mc.ctr_miss_rate(),
                },
            }),
        );
    }
    table.finish(
        args,
        "Figure 2: traffic breakdown (normalized to NP total) + CTR miss rate",
        "",
    )
}

/// Figure 3: CTR cache size (128 KB → 2 MB) vs. miss rate for DFS, PR, GC
/// under the MorphCtr baseline — the "limited gains from scaling" result.
pub(super) fn fig03(args: &Args) -> FigureOutput {
    const SIZES_KB: [usize; 5] = [128, 256, 512, 1024, 2048];
    let set = args.graph_set();
    let kernels = [GraphKernel::Dfs, GraphKernel::Pr, GraphKernel::Gc];
    let traces: Vec<_> = kernels.into_iter().map(|k| (k, set.trace(k))).collect();

    let mut jobs = Vec::new();
    for (kernel, trace) in &traces {
        for kb in SIZES_KB {
            let label = format!("{}/{kb}KB", kernel.name());
            jobs.push(
                Job::new(label, Design::MorphCtr, trace, args.seed)
                    .with_tweak(move |c| c.ctr_cache.size_bytes = kb * 1024),
            );
        }
    }
    let outcomes = run_grid(jobs, args);

    let mut table = Table::new(&["kernel", "128KB", "256KB", "512KB", "1MB", "2MB"]);
    for ((kernel, _), sweep) in traces.iter().zip(outcomes.chunks(SIZES_KB.len())) {
        let mut cells = vec![kernel.name().to_string()];
        let mut series = Vec::new();
        for (kb, outcome) in SIZES_KB.into_iter().zip(sweep) {
            let miss = outcome.stats.ctr_miss_rate();
            cells.push(pct(miss));
            series.push(json!({"size_kb": kb, "ctr_miss_rate": miss}));
        }
        table.row(cells, json!({"kernel": kernel.name(), "series": series}));
    }
    table.finish(
        args,
        "Figure 3: CTR cache size vs. miss rate (MorphCtr)",
        "",
    )
}

/// Figure 4: accessing the CTR after an L1 miss vs. after an LLC miss —
/// CTR cache miss rate and total memory traffic across graph kernels.
///
/// The post-L1 tap is the idealized early-access experiment (EMCC-like
/// datapath); the post-LLC tap is the MorphCtr baseline.
pub(super) fn fig04(args: &Args) -> FigureOutput {
    let grid = design_grid(
        args,
        &Workload::graph_suite(),
        [Design::MorphCtr, Design::Emcc],
    );
    let mut table = Table::new(&[
        "kernel",
        "miss (after LLC)",
        "miss (after L1)",
        "traffic L1/LLC",
        "MT reads L1/LLC",
    ]);
    let mut miss_drop = Vec::new();
    for (w, [after_llc, after_l1]) in &grid {
        let traffic_ratio = after_l1.traffic.total() as f64 / after_llc.traffic.total() as f64;
        let mt_ratio = after_l1.traffic.mt_reads as f64 / after_llc.traffic.mt_reads.max(1) as f64;
        miss_drop.push(after_llc.ctr_miss_rate() - after_l1.ctr_miss_rate());
        table.row(
            vec![
                w.name().to_string(),
                pct(after_llc.ctr_miss_rate()),
                pct(after_l1.ctr_miss_rate()),
                f3(traffic_ratio),
                f3(mt_ratio),
            ],
            json!({
                "kernel": w.name(),
                "ctr_miss_after_llc": after_llc.ctr_miss_rate(),
                "ctr_miss_after_l1": after_l1.ctr_miss_rate(),
                "traffic_ratio_l1_over_llc": traffic_ratio,
                "mt_reads_ratio": mt_ratio,
            }),
        );
    }
    let avg_drop = miss_drop.iter().sum::<f64>() / miss_drop.len() as f64;
    FigureOutput {
        report: table.report(
            "Figure 4: CTR access after L1 vs. after LLC",
            &format!(
                "\naverage CTR miss-rate reduction: {:.1} points\n",
                avg_drop * 100.0
            ),
        ),
        json: json!({"accesses": args.accesses, "avg_miss_drop": avg_drop, "rows": (table.results)}),
    }
}

/// Figure 5: classic cache optimizations on the CTR cache (DFS, CTR access
/// after L1 misses): Next-Line / Stride / Berti prefetchers and RRIP /
/// SHiP / Mockingjay replacement, vs. the plain LRU baseline.
///
/// The paper's point: none of them move the needle — prefetch accuracy is
/// ~1–5% and heuristic replacement cannot cope with the irregular CTR
/// stream.
pub(super) fn fig05(args: &Args) -> FigureOutput {
    let set = args.graph_set();
    let trace = set.trace(GraphKernel::Dfs);

    let variants = [
        ("LRU (base)", PolicyKind::Lru, PrefetcherKind::None),
        ("Next-Line", PolicyKind::Lru, PrefetcherKind::NextLine),
        ("Stride", PolicyKind::Lru, PrefetcherKind::Stride),
        ("Berti", PolicyKind::Lru, PrefetcherKind::Berti),
        ("RRIP", PolicyKind::Rrip, PrefetcherKind::None),
        ("DRRIP", PolicyKind::Drrip, PrefetcherKind::None),
        ("SHiP", PolicyKind::Ship, PrefetcherKind::None),
        ("Mockingjay", PolicyKind::Mockingjay, PrefetcherKind::None),
    ];
    let jobs = variants
        .iter()
        .map(|&(name, policy, prefetcher)| {
            Job::new(name, Design::Emcc, &trace, args.seed).with_tweak(move |c| {
                c.ctr_policy = policy;
                c.ctr_prefetcher = prefetcher;
            })
        })
        .collect();
    let outcomes = run_grid(jobs, args);

    let base_ipc = outcomes[0].stats.ipc();
    let mut table = Table::new(&["variant", "CTR miss", "IPC / LRU", "prefetch acc"]);
    for ((name, _, _), outcome) in variants.iter().zip(&outcomes) {
        let stats = &outcome.stats;
        let pf_acc = stats.ctr_cache.prefetch_accuracy();
        table.row(
            vec![
                name.to_string(),
                pct(stats.ctr_miss_rate()),
                f3(stats.ipc() / base_ipc),
                if stats.ctr_cache.prefetch_issued > 0 {
                    pct(pf_acc)
                } else {
                    "-".to_string()
                },
            ],
            json!({
                "variant": *name,
                "ctr_miss_rate": stats.ctr_miss_rate(),
                "ipc": stats.ipc(),
                "ipc_norm_to_lru": stats.ipc() / base_ipc,
                "prefetch_accuracy": pf_acc,
                "prefetch_issued": stats.ctr_cache.prefetch_issued,
            }),
        );
    }
    table.finish(
        args,
        "Figure 5: classic optimizations on the CTR cache (DFS)",
        "",
    )
}

/// Figure 8: generalization of the DFS-tuned hyperparameters — data
/// location prediction correctness and CTR cache miss rate as memory
/// accesses increase, for BFS (graph, similar to the tuning workload) and
/// MLP (non-graph, unseen).
///
/// The default sweep reaches 4M accesses and `--large` 16M; the paper's
/// 10M is `--accesses 10000000` (`results/fig08_large.txt`). `--sample`
/// does not apply: the figure *is* the per-window timeline of one full
/// run, which a sampled run does not have.
pub(super) fn fig08(args: &Args) -> FigureOutput {
    let window = (args.accesses / 8).max(1);
    let set = args.graph_set();
    let bfs = set.trace(GraphKernel::Bfs);
    let mlp = MlModel::Mlp.generate(args.spec().cores, args.accesses, args.seed);
    let traces = [("BFS", &bfs), ("MLP", &mlp)];

    let jobs = traces
        .iter()
        .map(|&(name, trace)| {
            Job::new(format!("{name}/COSMOS"), Design::Cosmos, trace, args.seed)
                .with_tweak(move |c| c.sample_interval = window)
        })
        .collect();
    let full_runs = Args {
        sample: false,
        ..args.clone()
    };
    let outcomes = run_grid(jobs, &full_runs);

    let mut report = String::from("## Figure 8: DP correctness and CTR miss rate vs. accesses\n\n");
    let mut results = Vec::new();
    for ((name, _), outcome) in traces.iter().zip(&outcomes) {
        let mut table = Table::new(&["accesses", "DP correctness", "CTR miss (window)"]);
        for p in &outcome.stats.timeline {
            table.row(
                vec![
                    format!("{:.1}M", p.accesses as f64 / 1e6),
                    pct(p.dp_accuracy),
                    pct(p.ctr_miss_rate_window),
                ],
                json!({
                    "accesses": p.accesses,
                    "dp_accuracy": p.dp_accuracy,
                    "ctr_miss_rate_window": p.ctr_miss_rate_window,
                }),
            );
        }
        report += &format!("### {name}\n\n{}\n", table.markdown());
        results.push(json!({"workload": *name, "series": (table.results)}));
    }
    FigureOutput {
        report,
        json: json!({"accesses": args.accesses, "rows": results}),
    }
}

/// Figure 9: CET size vs. the fraction of CTR accesses classified as good
/// locality and the LCR-CTR cache miss rate (DFS).
///
/// The paper's design-space exploration behind the 8,192-entry choice: a
/// bigger CET labels more accesses good (diluting the LCR's
/// discrimination), while a tiny CET starves it.
pub(super) fn fig09(args: &Args) -> FigureOutput {
    const CET_SIZES: [usize; 6] = [1024, 2048, 4096, 8192, 10240, 16384];
    let set = args.graph_set();
    let trace = set.trace(GraphKernel::Dfs);

    let jobs = CET_SIZES
        .into_iter()
        .map(|entries| {
            Job::new(format!("cet{entries}"), Design::Cosmos, &trace, args.seed)
                .with_tweak(move |c| c.cet_entries = entries)
        })
        .collect();

    let mut table = Table::new(&["CET entries", "marked good", "LCR-CTR miss"]);
    for (entries, outcome) in CET_SIZES.into_iter().zip(run_grid(jobs, args)) {
        let stats = &outcome.stats;
        table.row(
            vec![
                entries.to_string(),
                pct(stats.ctr_pred.good_fraction()),
                pct(stats.ctr_miss_rate()),
            ],
            json!({
                "cet_entries": entries,
                "good_fraction": stats.ctr_pred.good_fraction(),
                "lcr_ctr_miss_rate": stats.ctr_miss_rate(),
            }),
        );
    }
    table.finish(
        args,
        "Figure 9: CET entries vs. good-locality fraction and LCR miss rate (DFS)",
        "",
    )
}

/// NP first, then Figure 10's four designs in plot order.
const FIG10_DESIGNS: [Design; 5] = [
    Design::Np,
    Design::MorphCtr,
    Design::CosmosCp,
    Design::CosmosDp,
    Design::Cosmos,
];

/// Figure 10: performance of MorphCtr, COSMOS-DP, COSMOS-CP, and full
/// COSMOS, normalized to the non-protected (NP) system, across the
/// irregular suite (8 graph kernels + mcf, canneal, omnetpp).
///
/// This is the paper's headline result: COSMOS ≈ +25% over MorphCtr on
/// irregular workloads, with COSMOS-DP contributing most of it.
pub(super) fn fig10(args: &Args) -> FigureOutput {
    let designs = &FIG10_DESIGNS[1..];
    let grid = design_grid(args, &Workload::irregular_suite(), FIG10_DESIGNS);

    let mut table = Table::new(&["workload", "MorphCtr", "COSMOS-CP", "COSMOS-DP", "COSMOS"]);
    let mut geo: Vec<f64> = vec![0.0; designs.len()];
    for (w, [np, secure @ ..]) in &grid {
        let mut cells = vec![w.name().to_string()];
        let mut per_design = Map::new();
        for (i, (d, stats)) in designs.iter().zip(secure).enumerate() {
            let norm = stats.ipc() / np.ipc();
            geo[i] += norm.ln();
            cells.push(f3(norm));
            per_design.insert(d.name(), json!(norm));
        }
        table.row(
            cells,
            json!({"workload": w.name(), "normalized_ipc": per_design}),
        );
    }
    let n = grid.len() as f64;
    let geomeans: Vec<f64> = geo.iter().map(|g| (g / n).exp()).collect();
    table.rows.push(
        std::iter::once("**geomean**".to_string())
            .chain(geomeans.iter().map(|&g| f3(g)))
            .collect(),
    );
    let means: Map = designs
        .iter()
        .zip(&geomeans)
        .map(|(d, &g)| (d.name().to_string(), json!(g)))
        .collect();
    let (mc, cosmos) = (geomeans[0], geomeans[3]);
    FigureOutput {
        report: table.report(
            "Figure 10: performance normalized to NP",
            &format!(
                "\nCOSMOS over MorphCtr: {:+.1}% (paper: +25%)\n",
                (cosmos / mc - 1.0) * 100.0
            ),
        ),
        json: json!({"accesses": args.accesses, "geomean": means, "rows": (table.results)}),
    }
}

/// Figures 11 and 14: one metric per graph kernel × Figure-10 design,
/// printed with `cell` and averaged in a mean row. `metric` gives a cell's
/// value and its JSON form, filed under `key` in each row object.
fn per_design_table(
    args: &Args,
    title: &str,
    key: &str,
    cell: fn(f64) -> String,
    metric: impl Fn(Design, &SimStats) -> (f64, Value),
) -> FigureOutput {
    let designs = Design::figure10();
    let grid = design_grid(args, &Workload::graph_suite(), designs);
    let mut table = Table::new(&["kernel", "MorphCtr", "COSMOS-CP", "COSMOS-DP", "COSMOS"]);
    let mut sum = [0.0; 4];
    for (w, stats) in &grid {
        let mut cells = vec![w.name().to_string()];
        let mut per_design = Map::new();
        for (i, (d, stats)) in designs.into_iter().zip(stats).enumerate() {
            let (value, doc) = metric(d, stats);
            sum[i] += value;
            cells.push(cell(value));
            per_design.insert(d.name(), doc);
        }
        let mut row = Map::new();
        row.insert("kernel", json!(w.name()));
        row.insert(key, per_design.into());
        table.row(cells, row.into());
    }
    let n = grid.len() as f64;
    table.rows.push(
        std::iter::once("**mean**".to_string())
            .chain(sum.iter().map(|s| cell(s / n)))
            .collect(),
    );
    table.finish(args, title, "")
}

/// Figure 11: CTR cache miss rate of MorphCtr, COSMOS-CP, COSMOS-DP, and
/// full COSMOS across the graph kernels.
pub(super) fn fig11(args: &Args) -> FigureOutput {
    per_design_table(
        args,
        "Figure 11: CTR cache miss rate by design",
        "ctr_miss",
        pct,
        |_, stats| (stats.ctr_miss_rate(), json!(stats.ctr_miss_rate())),
    )
}

/// Figure 12: data-location prediction distribution and accuracy across
/// the graph kernels (COSMOS's RL data location predictor).
///
/// Reports the four quadrants — correct on-chip, correct off-chip, wrong
/// on-chip, wrong off-chip — as fractions of all L1-miss predictions.
pub(super) fn fig12(args: &Args) -> FigureOutput {
    let grid = design_grid(args, &Workload::graph_suite(), [Design::Cosmos]);
    let mut table = Table::new(&[
        "kernel",
        "correct on-chip",
        "correct off-chip",
        "wrong on-chip",
        "wrong off-chip",
        "accuracy",
    ]);
    let mut total_acc = 0.0;
    for (w, [stats]) in &grid {
        let p = &stats.data_pred;
        let total = p.total() as f64;
        total_acc += p.accuracy();
        table.row(
            vec![
                w.name().to_string(),
                pct(p.correct_onchip as f64 / total),
                pct(p.correct_offchip as f64 / total),
                pct(p.wrong_onchip as f64 / total),
                pct(p.wrong_offchip as f64 / total),
                pct(p.accuracy()),
            ],
            json!({
                "kernel": w.name(),
                "correct_onchip": p.correct_onchip as f64 / total,
                "correct_offchip": p.correct_offchip as f64 / total,
                "wrong_onchip": p.wrong_onchip as f64 / total,
                "wrong_offchip": p.wrong_offchip as f64 / total,
                "accuracy": p.accuracy(),
            }),
        );
    }
    let mean = total_acc / grid.len() as f64 * 100.0;
    table.finish(
        args,
        "Figure 12: data-location prediction distribution and accuracy",
        &format!("\nmean accuracy: {mean:.1}% (paper: ~85%)\n"),
    )
}

/// Figure 13: fraction of CTR accesses classified as good locality, full
/// COSMOS (early CTR access) vs. COSMOS-CP (CTR access after LLC misses).
///
/// The paper's point: the post-LLC stream is locality-starved (~5% good),
/// while early access exposes far more reusable CTRs (~20%).
pub(super) fn fig13(args: &Args) -> FigureOutput {
    let grid = design_grid(
        args,
        &Workload::graph_suite(),
        [Design::Cosmos, Design::CosmosCp],
    );
    let mut table = Table::new(&["kernel", "COSMOS", "COSMOS-CP"]);
    let (mut sum_full, mut sum_cp) = (0.0, 0.0);
    for (w, [full, cp]) in &grid {
        let g_full = full.ctr_pred.good_fraction();
        let g_cp = cp.ctr_pred.good_fraction();
        sum_full += g_full;
        sum_cp += g_cp;
        table.row(
            vec![w.name().to_string(), pct(g_full), pct(g_cp)],
            json!({
                "kernel": w.name(),
                "good_fraction_cosmos": g_full,
                "good_fraction_cosmos_cp": g_cp,
            }),
        );
    }
    let n = grid.len() as f64;
    table.rows.push(vec![
        "**mean**".to_string(),
        pct(sum_full / n),
        pct(sum_cp / n),
    ]);
    table.finish(args, "Figure 13: CTR accesses classified good locality", "")
}

/// Figure 14: Secure Memory Access Time (SMAT, paper Eq. 1–2) across
/// MorphCtr, COSMOS-CP, COSMOS-DP, and full COSMOS.
pub(super) fn fig14(args: &Args) -> FigureOutput {
    per_design_table(
        args,
        "Figure 14: SMAT (cycles per access, lower is better)",
        "smat",
        f3,
        |design, stats| {
            let m = smat(&SimConfig::paper_default(design), stats);
            (m.total, json!({"smat": m.total, "ctr_term": m.ctr_term}))
        },
    )
}

/// Figure 15: COSMOS vs. MorphCtr, normalized to NP, on 4-core and 8-core
/// systems (8-core doubles the shared LLC to 16 MB) across seven graph
/// kernels.
pub(super) fn fig15(args: &Args) -> FigureOutput {
    const KERNELS: [GraphKernel; 7] = [
        GraphKernel::Bfs,
        GraphKernel::Dfs,
        GraphKernel::Tc,
        GraphKernel::Gc,
        GraphKernel::Cc,
        GraphKernel::Sp,
        GraphKernel::Dc,
    ];
    const DESIGNS: [Design; 3] = [Design::Np, Design::MorphCtr, Design::Cosmos];

    // One graph, traced per core count (the 8-core trace spreads accesses
    // over more cores, so the traces differ, not just the config).
    let set = args.graph_set();
    let mut traces = Vec::new();
    for cores in [4usize, 8] {
        for kernel in KERNELS {
            traces.push((cores, kernel, set.trace_with_cores(kernel, cores)));
        }
    }
    drop(set);

    let mut jobs = Vec::new();
    for (cores, kernel, trace) in &traces {
        let (cores, seed) = (*cores, args.seed);
        for design in DESIGNS {
            let label = format!("{cores}c/{}/{design}", kernel.name());
            jobs.push(Job::new(label, design, trace, seed).with_tweak(move |c| {
                if cores == 8 {
                    *c = SimConfig::eight_core(design);
                    c.seed = seed;
                }
            }));
        }
    }
    let outcomes = run_grid(jobs, args);

    let mut table = Table::new(&["config", "MorphCtr", "COSMOS", "gain"]);
    let mut gains = [0.0f64; 2];
    for ((cores, kernel, _), per_design) in traces.iter().zip(outcomes.chunks(DESIGNS.len())) {
        let [np, mc, cosmos] = [0, 1, 2].map(|i| &per_design[i].stats);
        let mc_n = mc.ipc() / np.ipc();
        let co_n = cosmos.ipc() / np.ipc();
        gains[usize::from(*cores == 8)] += co_n / mc_n - 1.0;
        table.row(
            vec![
                format!("{cores}-core {}", kernel.name()),
                f3(mc_n),
                f3(co_n),
                format!("{:+.1}%", (co_n / mc_n - 1.0) * 100.0),
            ],
            json!({
                "cores": *cores,
                "kernel": kernel.name(),
                "morphctr_norm": mc_n,
                "cosmos_norm": co_n,
            }),
        );
    }
    let n = KERNELS.len() as f64;
    table.finish(
        args,
        "Figure 15: multi-core scaling (normalized to NP per config)",
        &format!(
            "\nmean gain: 4-core {:+.1}%, 8-core {:+.1}% (paper: +25% / +26%)\n",
            gains[0] / n * 100.0,
            gains[1] / n * 100.0
        ),
    )
}

/// Figure 16 (+ §6.2 discussion): COSMOS vs. the idealized EMCC
/// implementation and the RMCC-like memoization baseline, all normalized
/// to NP, across the graph kernels.
pub(super) fn fig16(args: &Args) -> FigureOutput {
    let designs = [Design::Np, Design::Emcc, Design::Rmcc, Design::Cosmos];
    let grid = design_grid(args, &Workload::graph_suite(), designs);
    let mut table = Table::new(&["kernel", "EMCC", "RMCC", "COSMOS", "gain vs EMCC"]);
    let (mut gain_emcc, mut gain_rmcc) = (0.0, 0.0);
    for (w, [np, emcc, rmcc, cosmos]) in &grid {
        let e_n = emcc.ipc() / np.ipc();
        let r_n = rmcc.ipc() / np.ipc();
        let c_n = cosmos.ipc() / np.ipc();
        gain_emcc += c_n / e_n - 1.0;
        gain_rmcc += c_n / r_n - 1.0;
        table.row(
            vec![
                w.name().to_string(),
                f3(e_n),
                f3(r_n),
                f3(c_n),
                format!("{:+.1}%", (c_n / e_n - 1.0) * 100.0),
            ],
            json!({
                "kernel": w.name(),
                "emcc_norm": e_n,
                "rmcc_norm": r_n,
                "cosmos_norm": c_n,
            }),
        );
    }
    let n = grid.len() as f64;
    table.finish(
        args,
        "Figure 16: COSMOS vs. EMCC and RMCC (normalized to NP)",
        &format!(
            "\nmean COSMOS gain: vs EMCC {:+.1}% (paper: +10%), vs RMCC {:+.1}% (paper: similar to EMCC)\n",
            gain_emcc / n * 100.0,
            gain_rmcc / n * 100.0
        ),
    )
}

/// Figure 17: COSMOS vs. MorphCtr, normalized to NP, on regular
/// (ML-inference) workloads — the no-regression check.
///
/// The paper expects only ~3% gains here: regular streams already hit the
/// caches, and same-counter re-encryption (not CTR misses) dominates the
/// residual overhead.
pub(super) fn fig17(args: &Args) -> FigureOutput {
    let designs = [Design::Np, Design::MorphCtr, Design::Cosmos];
    let grid = design_grid(args, &Workload::ml_suite(), designs);
    let mut table = Table::new(&["model", "MorphCtr", "COSMOS", "gain", "re-encryptions"]);
    let mut gain = 0.0;
    for (w, [np, mc, cosmos]) in &grid {
        let mc_n = mc.ipc() / np.ipc();
        let co_n = cosmos.ipc() / np.ipc();
        gain += co_n / mc_n - 1.0;
        table.row(
            vec![
                w.name().to_string(),
                f3(mc_n),
                f3(co_n),
                format!("{:+.1}%", (co_n / mc_n - 1.0) * 100.0),
                mc.ctr_overflows.to_string(),
            ],
            json!({
                "model": w.name(),
                "morphctr_norm": mc_n,
                "cosmos_norm": co_n,
                "reencryptions_morphctr": mc.ctr_overflows,
            }),
        );
    }
    table.finish(
        args,
        "Figure 17: ML (regular) workloads, normalized to NP",
        &format!(
            "\nmean COSMOS-over-MorphCtr gain: {:+.1}% (paper: ~+3%, no regression)\n",
            gain / grid.len() as f64 * 100.0
        ),
    )
}

/// Hyperparameter sweep (paper §4.5): samples (α, γ, ε) combinations for
/// both predictors on a DFS trace with fixed ±10 rewards and reports the
/// best combination by LCR-CTR cache hit rate — the paper's tuning
/// procedure. The paper samples 1,000 combinations; the default grid here
/// is 3×3×3 = 27. `--large` both quadruples the trace, as for every
/// figure, and widens the grid to 6×5×4 = 120.
pub(super) fn hyperparam_sweep(args: &Args) -> FigureOutput {
    let set = args.graph_set();
    let trace = set.trace(GraphKernel::Dfs);

    let (alphas, gammas, epsilons): (&[f32], &[f32], &[f32]) = if args.large {
        (
            &[0.01, 0.03, 0.05, 0.09, 0.2, 0.5],
            &[0.1, 0.35, 0.6, 0.88, 0.99],
            &[0.001, 0.01, 0.1, 0.3],
        )
    } else {
        (&[0.03, 0.09, 0.3], &[0.35, 0.88, 0.99], &[0.001, 0.1, 0.3])
    };

    // Fixed-score rewards (+10 / -10) during the hyperparameter phase.
    let flat_data = DataRewards {
        r_hi: 10.0,
        r_mo: 10.0,
        r_ho: -10.0,
        r_mi: -10.0,
    };
    let flat_ctr = CtrRewards {
        r_hg: 10.0,
        r_mb: 10.0,
        r_eb: 10.0,
        r_hb: -10.0,
        r_mg: -10.0,
        r_eg: -10.0,
    };

    let mut grid = Vec::new();
    for &alpha in alphas {
        for &gamma in gammas {
            for &eps in epsilons {
                grid.push((alpha, gamma, eps));
            }
        }
    }
    let jobs = grid
        .iter()
        .map(|&(alpha, gamma, eps)| {
            let label = format!("a{alpha}/g{gamma}/e{eps}");
            Job::new(label, Design::Cosmos, &trace, args.seed).with_tweak(move |c| {
                c.data_rl.alpha = alpha;
                c.data_rl.gamma = gamma;
                c.data_rl.epsilon = eps;
                c.ctr_rl.alpha = alpha;
                c.ctr_rl.gamma = gamma;
                c.ctr_rl.epsilon = eps;
                c.rewards.data = flat_data;
                c.rewards.ctr = flat_ctr;
            })
        })
        .collect();

    let mut best: Option<(f64, (f32, f32, f32))> = None;
    let mut table = Table::new(&["combination", "CTR hit rate", "DP accuracy"]);
    for (&(alpha, gamma, eps), outcome) in grid.iter().zip(run_grid(jobs, args)) {
        let stats = &outcome.stats;
        let hit = 1.0 - stats.ctr_miss_rate();
        if best.map(|(b, _)| hit > b).unwrap_or(true) {
            best = Some((hit, (alpha, gamma, eps)));
        }
        table.row(
            vec![
                format!("α={alpha} γ={gamma} ε={eps}"),
                f3(hit),
                f3(stats.data_pred.accuracy()),
            ],
            json!({
                "alpha": alpha, "gamma": gamma, "epsilon": eps,
                "ctr_hit_rate": hit,
                "dp_accuracy": stats.data_pred.accuracy(),
            }),
        );
    }
    let (hit, (a, g, e)) = best.expect("non-empty sweep");
    FigureOutput {
        report: table.report(
            "Hyperparameter sweep (fixed ±10 rewards, DFS)",
            &format!(
                "\nbest: α={a} γ={g} ε={e} (CTR hit {hit:.3})\n\
                 paper's chosen values: α_D=0.09 γ_D=0.88 ε_D=0.1; α_C=0.05 γ_C=0.35 ε_C=0.001\n"
            ),
        ),
        json: json!({"best": {"alpha": a, "gamma": g, "epsilon": e, "ctr_hit": hit}, "rows": (table.results)}),
    }
}

/// Ablations for the design choices called out in DESIGN.md §4:
///
/// 1. CTR cache associativity (8-way vs. fully associative — the headroom
///    the LCR policy competes for),
/// 2. DRAM bank model vs. a fixed-latency DRAM,
/// 3. graph memory layout (Object vs. CSR),
/// 4. the paper's 128 KB COSMOS CTR-cache size accounting vs. equal sizes.
pub(super) fn ablation_design(args: &Args) -> FigureOutput {
    let set = args.graph_set();
    let trace = set.trace(GraphKernel::Dfs);

    // Layout-ablation traces (regenerated per layout; the shared DFS trace
    // above uses the spec's default layout).
    let layout_traces = [LayoutMode::Object, LayoutMode::Csr].map(|mode| {
        let mut spec = *set.spec();
        spec.graph_layout = mode;
        (mode, Workload::Graph(GraphKernel::Dfs).generate(&spec))
    });

    // Per variant, in report order: the table label, the `ablation` kind
    // with its one parameter (the row's JSON object, which gains
    // `ctr_miss` and `ipc` once the grid has run), and the job.
    let mut labels: Vec<(String, &str, (&str, Value))> = Vec::new();
    let mut jobs = Vec::new();
    for ways in [8usize, 64, 8192] {
        let label = format!("MorphCtr, CTR cache {ways}-way");
        labels.push((label, "assoc", ("ways", json!(ways))));
        jobs.push(
            Job::new(format!("assoc/{ways}"), Design::MorphCtr, &trace, args.seed)
                .with_tweak(move |c| c.ctr_cache.ways = ways),
        );
    }
    for (name, dram) in [
        ("bank model", cosmos_dram::DramConfig::ddr4_2400()),
        ("fixed latency", cosmos_dram::DramConfig::fixed_latency()),
    ] {
        labels.push((
            format!("COSMOS, DRAM {name}"),
            "dram",
            ("variant", json!(name)),
        ));
        jobs.push(
            Job::new(format!("dram/{name}"), Design::Cosmos, &trace, args.seed)
                .with_tweak(move |c| c.dram = dram),
        );
    }
    for (mode, t) in &layout_traces {
        let label = format!("MorphCtr, {mode:?} layout");
        labels.push((label, "layout", ("mode", json!(format!("{mode:?}")))));
        jobs.push(Job::new(
            format!("layout/{mode:?}"),
            Design::MorphCtr,
            t,
            args.seed,
        ));
    }
    for (name, small) in [("equal 512 KB", false), ("paper 128 KB", true)] {
        labels.push((
            format!("COSMOS, {name}"),
            "ctr_size",
            ("variant", json!(name)),
        ));
        let label = format!("ctr_size/{name}");
        jobs.push(
            Job::new(label, Design::Cosmos, &trace, args.seed).with_tweak(move |c| {
                if small {
                    *c = c.clone().with_paper_ctr_sizes();
                }
            }),
        );
    }

    let mut table = Table::new(&["variant", "CTR miss", "IPC"]);
    for ((label, kind, (key, value)), outcome) in labels.into_iter().zip(run_grid(jobs, args)) {
        let stats = &outcome.stats;
        let mut doc = Map::new();
        doc.insert("ablation", json!(kind));
        doc.insert(key, value);
        doc.insert("ctr_miss", json!(stats.ctr_miss_rate()));
        doc.insert("ipc", json!(stats.ipc()));
        table.row(
            vec![label, pct(stats.ctr_miss_rate()), f3(stats.ipc())],
            doc.into(),
        );
    }
    table.finish(args, "Design ablations (DFS)", "")
}
