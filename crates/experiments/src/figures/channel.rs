//! The occupancy-channel figure (DESIGN.md §16).

use super::{FigureOutput, Table};
use crate::runner::{run_tasks, Job, Task};
use crate::{f3, run_grid, Args};
use cosmos_channel::{build_epoch_trace, reduce, run_cell, ChannelSpec, Victim, DEFAULT_BINS};
use cosmos_common::json::json;
use cosmos_core::config::CtrIndex;
use cosmos_core::{Design, SimConfig};
use cosmos_workloads::spec::SpecKind;
use cosmos_workloads::tenant::{OccupancyProbe, TenantMix};
use cosmos_workloads::Workload;

/// The occupancy-channel cells: the index-function sweep on the LRU
/// baseline, plus full COSMOS to show how LCR replacement reshapes the
/// channel (DESIGN.md §16).
const CHANNEL_CELLS: [(Design, CtrIndex); 4] = [
    (Design::MorphCtr, CtrIndex::Modulo),
    (Design::MorphCtr, CtrIndex::Random),
    (Design::MorphCtr, CtrIndex::Skewed),
    (Design::Cosmos, CtrIndex::Modulo),
];

/// Victim occupancy levels (counter blocks per epoch). Kept below the
/// instrument's 16 sets: under modulo+LRU one victim line cascades a whole
/// set, so the staircase saturates once every set is hit and higher levels
/// stop being distinguishable under *any* index function.
const CHANNEL_LEVELS: [usize; 5] = [0, 2, 4, 8, 12];

/// Counter blocks primed and probed per epoch — the instrument's full
/// line capacity, so the probe reads total CTR-cache occupancy.
const CHANNEL_PROBE_LINES: usize = 128;

/// Shrinks the CTR cache to the measurement instrument: 8 KB = 128 lines
/// (16 sets × 8 ways), so full-occupancy probes stay cheap at smoke
/// budgets. Every cell shares this geometry.
fn channel_instrument(c: &mut SimConfig) {
    c.ctr_cache.size_bytes = 8 * 1024;
    c.mt_cache.size_bytes = 8 * 1024;
}

/// Occupancy channel: how much of a victim's CTR-cache occupancy a
/// co-resident attacker can read back out of its own probe misses, per
/// design/index cell — per-level histograms, a total-variation
/// distinguishability score, and a channel capacity in bits per epoch.
/// Plus one [`TenantMix`] run demonstrating per-tenant CTR attribution
/// (and, under `--telemetry`, per-tenant occupancy heatmaps).
///
/// `--sample` does not apply: the epoch protocol *is* the measurement, so
/// sampling intervals out of it would destroy the probe windows; the
/// tenant-mix run is simulated in full too.
pub(super) fn occupancy(args: &Args) -> FigureOutput {
    let levels = CHANNEL_LEVELS;
    let epoch_len = 2 * CHANNEL_PROBE_LINES + levels.iter().sum::<usize>() / levels.len();
    let grid = CHANNEL_CELLS.len() * levels.len();
    let epochs = (args.accesses / (grid * epoch_len)).clamp(8, 256);
    let spec = ChannelSpec::new(CHANNEL_PROBE_LINES, epochs);

    let configs: Vec<SimConfig> = CHANNEL_CELLS
        .iter()
        .map(|&(design, index)| {
            let mut c = SimConfig::paper_default(design);
            c.seed = args.seed;
            channel_instrument(&mut c);
            c.ctr_index = index;
            c
        })
        .collect();

    // One task per (cell, level): each builds its own epoch trace, so the
    // closure grid goes through run_tasks rather than run_jobs.
    let tasks: Vec<Task<'_, _>> = configs
        .iter()
        .flat_map(|config| {
            levels.iter().map(move |&level| {
                Box::new(move || {
                    let et = build_epoch_trace(
                        &spec,
                        Victim::Occupancy { lines: level },
                        config.scheme.coverage(),
                    );
                    run_cell(config, &et, args.check).observations
                }) as Task<'_, _>
            })
        })
        .collect();
    let outcomes: Vec<Vec<cosmos_channel::EpochObservation>> = {
        let _p = args.telemetry.phase("sim");
        run_tasks(tasks, args.jobs)
    };

    let mut headers = vec!["design/index", "disting.", "capacity b/ep"];
    let level_headers: Vec<String> = levels.iter().map(|l| format!("@{l}")).collect();
    headers.extend(level_headers.iter().map(String::as_str));
    let mut cell_table = Table::new(&headers);
    for (ci, &(design, index)) in CHANNEL_CELLS.iter().enumerate() {
        let per_level: Vec<(usize, Vec<_>)> = levels
            .iter()
            .enumerate()
            .map(|(li, &level)| (level, outcomes[ci * levels.len() + li].clone()))
            .collect();
        let report = reduce(&per_level, DEFAULT_BINS);
        let mut cells = vec![
            format!("{design}/{}", index.name()),
            f3(report.distinguishability),
            f3(report.capacity_bits),
        ];
        cells.extend(report.levels.iter().map(|l| f3(l.mean_misses)));
        cell_table.row(
            cells,
            json!({
                "design": design.name(),
                "ctr_index": index.name(),
                "report": report.to_json(),
            }),
        );
    }

    // Tenant-attribution demo: a real victim workload interleaved with a
    // strided attacker probe, split by the per-tenant CTR stat buckets.
    // config.tenants = 2 also switches on per-tenant occupancy heatmaps
    // under --telemetry.
    let mix_budget = (args.accesses / 10).max(4_000);
    let victim = Workload::Spec(SpecKind::Mcf).generate(&args.spec().with_accesses(mix_budget / 2));
    let coverage = configs[0].scheme.coverage();
    let probe = OccupancyProbe::new(1 << 26, mix_budget / 2, coverage).generate();
    let mix = TenantMix::new()
        .stream(0, victim)
        .stream(1, probe)
        .compose(args.seed);
    let mix_job = Job::new("channel_mix", Design::MorphCtr, &mix, args.seed).with_tweak(|c| {
        channel_instrument(c);
        c.tenants = 2;
    });
    let full_run = Args {
        sample: false,
        ..args.clone()
    };
    let mix_stats = run_grid(vec![mix_job], &full_run)
        .pop()
        .expect("grid yields one outcome per job")
        .stats;
    let mut mix_table = Table::new(&["tenant", "ctr hits", "ctr misses", "miss latency"]);
    for (tenant, name) in [(0usize, "victim (mcf)"), (1, "attacker (probe)")] {
        let t = &mix_stats.tenant_ctr[tenant];
        mix_table.row(
            vec![
                name.to_string(),
                t.hits.to_string(),
                t.misses.to_string(),
                t.miss_latency.to_string(),
            ],
            json!({
                "tenant": tenant,
                "hits": t.hits,
                "misses": t.misses,
                "miss_latency": t.miss_latency,
            }),
        );
    }

    let report = format!(
        "## Occupancy channel: victim occupancy vs attacker probe misses\n\n\
         instrument: 8 KB CTR cache (16 sets x 8 ways), probe {CHANNEL_PROBE_LINES} blocks/epoch, \
         {epochs} epochs/cell\n\n{}\n{}",
        cell_table.markdown(),
        mix_table.report(
            "Per-tenant CTR attribution (TenantMix: mcf victim + strided probe)",
            ""
        ),
    );
    FigureOutput {
        report,
        json: json!({
            "accesses": args.accesses,
            "probe_lines": CHANNEL_PROBE_LINES,
            "epochs": epochs,
            "levels": (levels.to_vec()),
            "cells": (cell_table.results),
            "tenant_mix": {
                "accesses": (mix.len()),
                "tenants": (mix_table.results),
            },
        }),
    }
}
