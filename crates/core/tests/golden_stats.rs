//! Golden pins for the stat schema's serialized form and the sampled
//! estimator's arithmetic.
//!
//! Both strings were recorded before the stats structs were generated from
//! a single field declaration. The `SimStats` snapshot bytes must not
//! change: they are the same in snapshot format versions 1 and 2 (version 2
//! changed only the data-cache hierarchy's saved state). The estimator must
//! keep the same per-counter `f64` accumulation and rounding, so sampled
//! artifacts stay byte-identical.

use cosmos_cache::CacheStats;
use cosmos_common::stats::{Counters, HitMiss};
use cosmos_core::estimate::StatsEstimate;
use cosmos_core::stats::{TenantCtrStats, MAX_TENANTS};
use cosmos_core::{SimStats, TimelinePoint, TrafficBreakdown};
use cosmos_dram::DramStats;
use cosmos_rl::{CtrLocalityStats, DataLocationStats};

/// A `SimStats` whose every counter leaf is distinct and nonzero: leaf
/// values are `start`, `start + step`, `start + 2·step`, … in field order.
fn distinct_stats(start: u64, step: u64) -> SimStats {
    let mut n = start - step;
    let mut next = move || {
        n += step;
        n
    };
    let mut hm = || {
        let hits = next();
        HitMiss::from_counts(hits, next())
    };
    let (l1, l2, llc, ctr_demand, mt_demand) = (hm(), hm(), hm(), hm(), hm());
    let mut cache = |demand: HitMiss| CacheStats {
        demand,
        evictions: next(),
        writebacks: next(),
        prefetch_issued: next(),
        prefetch_useful: next(),
        prefetch_unused: next(),
        prefetch_redundant: next(),
    };
    let (ctr_cache, mt_cache) = (cache(ctr_demand), cache(mt_demand));
    SimStats {
        instructions: next(),
        cycles: next(),
        accesses: next(),
        reads: next(),
        writes: next(),
        l1,
        l2,
        llc,
        ctr_cache,
        mt_cache,
        dram: DramStats {
            reads: next(),
            writes: next(),
            row_hits: next(),
            row_closed: next(),
            row_conflicts: next(),
            queue_cycles: next(),
        },
        traffic: TrafficBreakdown {
            data_reads: next(),
            data_writes: next(),
            ctr_reads: next(),
            ctr_writes: next(),
            mt_reads: next(),
            mt_writes: next(),
            mac_reads: next(),
            mac_writes: next(),
            reencrypt_writes: next(),
            killed_speculative: next(),
        },
        data_pred: DataLocationStats {
            correct_onchip: next(),
            correct_offchip: next(),
            wrong_offchip: next(),
            wrong_onchip: next(),
        },
        ctr_pred: CtrLocalityStats {
            predictions: next(),
            predicted_good: next(),
            cet_hits: next(),
            cet_evictions: next(),
            agreements: next(),
        },
        ctr_overflows: next(),
        total_read_latency: next(),
        early_offchip_reads: next(),
        tenant_ctr: core::array::from_fn::<_, MAX_TENANTS, _>(|_| TenantCtrStats {
            hits: next(),
            misses: next(),
            miss_latency: next(),
        }),
        timeline: vec![
            TimelinePoint {
                accesses: 4096,
                dp_accuracy: 0.625,
                dp_correct: 2560,
                dp_total: 4096,
                ctr_miss_rate_window: 0.1,
            },
            TimelinePoint {
                accesses: 8192,
                dp_accuracy: 2.0 / 3.0,
                dp_correct: 5461,
                dp_total: 8191,
                ctr_miss_rate_window: 0.3,
            },
        ],
    }
}

const SNAPSHOT_JSON: &str = concat!(
    r#"{"instructions":255,"#,
    r#""cycles":262,"#,
    r#""accesses":269,"#,
    r#""reads":276,"#,
    r#""writes":283,"#,
    r#""l1":{"hits":101,"#,
    r#""misses":108},"#,
    r#""l2":{"hits":115,"#,
    r#""misses":122},"#,
    r#""llc":{"hits":129,"#,
    r#""misses":136},"#,
    r#""ctr_cache":{"demand":{"hits":143,"misses":150},"#,
    r#""evictions":171,"#,
    r#""writebacks":178,"#,
    r#""prefetch_issued":185,"#,
    r#""prefetch_useful":192,"#,
    r#""prefetch_unused":199,"#,
    r#""prefetch_redundant":206},"#,
    r#""mt_cache":{"demand":{"hits":157,"misses":164},"#,
    r#""evictions":213,"#,
    r#""writebacks":220,"#,
    r#""prefetch_issued":227,"#,
    r#""prefetch_useful":234,"#,
    r#""prefetch_unused":241,"#,
    r#""prefetch_redundant":248},"#,
    r#""dram":{"reads":290,"#,
    r#""writes":297,"#,
    r#""row_hits":304,"#,
    r#""row_closed":311,"#,
    r#""row_conflicts":318,"#,
    r#""queue_cycles":325},"#,
    r#""traffic":{"data_reads":332,"#,
    r#""data_writes":339,"#,
    r#""ctr_reads":346,"#,
    r#""ctr_writes":353,"#,
    r#""mt_reads":360,"#,
    r#""mt_writes":367,"#,
    r#""mac_reads":374,"#,
    r#""mac_writes":381,"#,
    r#""reencrypt_writes":388,"#,
    r#""killed_speculative":395},"#,
    r#""data_pred":{"correct_onchip":402,"#,
    r#""correct_offchip":409,"#,
    r#""wrong_offchip":416,"#,
    r#""wrong_onchip":423},"#,
    r#""ctr_pred":{"predictions":430,"#,
    r#""predicted_good":437,"#,
    r#""cet_hits":444,"#,
    r#""cet_evictions":451,"#,
    r#""agreements":458},"#,
    r#""ctr_overflows":465,"#,
    r#""total_read_latency":472,"#,
    r#""early_offchip_reads":479,"#,
    r#""tenant_ctr":[{"hits":486,"misses":493,"miss_latency":500},"#,
    r#"{"hits":507,"misses":514,"miss_latency":521},"#,
    r#"{"hits":528,"misses":535,"miss_latency":542},"#,
    r#"{"hits":549,"misses":556,"miss_latency":563}],"#,
    r#""timeline":[{"accesses":4096,"dp_accuracy_bits":4603804719079489536,"dp_correct":2560,"dp_total":4096,"ctr_miss_rate_window_bits":4591870180066957722},"#,
    r#"{"accesses":8192,"dp_accuracy_bits":4604180019048437077,"dp_correct":5461,"dp_total":8191,"ctr_miss_rate_window_bits":4599075939470750515}]}"#,
);

const ESTIMATE_JSON: &str = concat!(
    r#"{"instructions":364,"#,
    r#""cycles":374,"#,
    r#""accesses":384,"#,
    r#""reads":394,"#,
    r#""writes":404,"#,
    r#""l1":{"hits":145,"#,
    r#""misses":155},"#,
    r#""l2":{"hits":165,"#,
    r#""misses":175},"#,
    r#""llc":{"hits":185,"#,
    r#""misses":195},"#,
    r#""ctr_cache":{"demand":{"hits":205,"misses":215},"#,
    r#""evictions":245,"#,
    r#""writebacks":255,"#,
    r#""prefetch_issued":265,"#,
    r#""prefetch_useful":275,"#,
    r#""prefetch_unused":285,"#,
    r#""prefetch_redundant":295},"#,
    r#""mt_cache":{"demand":{"hits":225,"misses":235},"#,
    r#""evictions":305,"#,
    r#""writebacks":315,"#,
    r#""prefetch_issued":325,"#,
    r#""prefetch_useful":335,"#,
    r#""prefetch_unused":344,"#,
    r#""prefetch_redundant":354},"#,
    r#""dram":{"reads":414,"#,
    r#""writes":424,"#,
    r#""row_hits":434,"#,
    r#""row_closed":444,"#,
    r#""row_conflicts":454,"#,
    r#""queue_cycles":464},"#,
    r#""traffic":{"data_reads":474,"#,
    r#""data_writes":484,"#,
    r#""ctr_reads":494,"#,
    r#""ctr_writes":504,"#,
    r#""mt_reads":514,"#,
    r#""mt_writes":524,"#,
    r#""mac_reads":534,"#,
    r#""mac_writes":544,"#,
    r#""reencrypt_writes":554,"#,
    r#""killed_speculative":564},"#,
    r#""data_pred":{"correct_onchip":574,"#,
    r#""correct_offchip":584,"#,
    r#""wrong_offchip":593,"#,
    r#""wrong_onchip":603},"#,
    r#""ctr_pred":{"predictions":613,"#,
    r#""predicted_good":623,"#,
    r#""cet_hits":633,"#,
    r#""cet_evictions":643,"#,
    r#""agreements":653},"#,
    r#""ctr_overflows":663,"#,
    r#""total_read_latency":673,"#,
    r#""early_offchip_reads":683,"#,
    r#""tenant_ctr":[{"hits":693,"misses":703,"miss_latency":713},"#,
    r#"{"hits":723,"misses":733,"miss_latency":743},"#,
    r#"{"hits":753,"misses":763,"miss_latency":773},"#,
    r#"{"hits":783,"misses":793,"miss_latency":803}],"#,
    r#""timeline":[]}"#,
);

#[test]
fn sim_stats_snapshot_bytes_are_pinned() {
    let s = distinct_stats(101, 7);
    let got = s.to_json().to_string();
    assert_eq!(got, SNAPSHOT_JSON);
    assert_eq!(SimStats::from_json(&s.to_json()).unwrap(), s);
}

#[test]
fn sampled_reconstruction_is_pinned() {
    let mut est = StatsEstimate::new();
    est.add_weighted(&distinct_stats(11, 3), 1.37);
    est.add_weighted(&distinct_stats(500, 13), 0.25);
    est.add_weighted(&distinct_stats(2, 1), 2.6);
    assert_eq!(est.samples(), 3);
    let got = est.reconstruct();
    assert!(got.timeline.is_empty(), "timelines are not reconstructed");
    assert_eq!(got.to_json().to_string(), ESTIMATE_JSON);
}
