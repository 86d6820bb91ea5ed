//! Golden digests of the CTR locality predictor's decisions.
//!
//! A seeded stream of CTR lines (a hot set, a warm set about twice the
//! CET, sequential runs and a cold uniform spread) drives a paper-sized
//! predictor (8192-entry CET, Table-1 parameters and rewards) through
//! many CET overflows. One FNV-1a digest takes every
//! [`LocalityDecision`] in order (locality, score, id and the bits of
//! both Q-values and the reward), then the final [`CtrLocalityStats`],
//! the CET length and the predictor's saved bytes. Any change to the CET
//! or the predictor that moves one decision, one Q-value, one eviction
//! or the snapshot form fails here.

use cosmos_common::hash::Fnv1a;
use cosmos_common::stats::Counters;
use cosmos_common::{LineAddr, SplitMix64};
use cosmos_rl::params::RlParams;
use cosmos_rl::{CtrLocalityPredictor, LocalityDecision};

const CET_ENTRIES: usize = 8192;
const CLASSIFICATIONS: usize = 150_000;
const CTR_BASE: u64 = 1 << 34;

/// `(radius, digest)`.
const GOLDEN: [(u64, u64); 2] = [(0, 0x02df_2751_42d9_9907), (2, 0x15cc_e388_0d00_4c5b)];

fn write_decision(h: &mut Fnv1a, d: &LocalityDecision) {
    h.write(&[u8::from(d.locality.is_good()), d.score]);
    h.write(&d.id.to_le_bytes());
    for q in [d.q_good, d.q_bad, d.reward] {
        h.write(&q.to_bits().to_le_bytes());
    }
}

/// The CTR-line stream: 40% a 2048-line hot set, 20% a 16 384-line warm
/// set, 20% a sequential walk and 20% uniform over 2^24 lines.
fn stream() -> impl Iterator<Item = LineAddr> {
    let mut rng = SplitMix64::new(0x6017_10CA);
    let mut seq = 0u64;
    (0..CLASSIFICATIONS).map(move |_| {
        let offset = match rng.next_below(10) {
            0..=3 => rng.next_below(2048),
            4..=5 => 4096 + rng.next_below(16_384),
            6..=7 => {
                seq += 1;
                (1 << 20) + seq
            }
            _ => rng.next_below(1 << 24),
        };
        LineAddr::new(CTR_BASE + offset)
    })
}

/// Runs the stream at `radius` and returns the digest, checking that the
/// run overflowed the CET many times and saw both CET outcomes.
fn digest(radius: u64) -> u64 {
    let mut p = CtrLocalityPredictor::new(RlParams::ctr_defaults(), CET_ENTRIES, radius, 3);
    let mut h = Fnv1a::new();
    for line in stream() {
        write_decision(&mut h, &p.classify(line));
    }
    let stats = *p.stats();
    assert!(
        stats.cet_evictions > 4 * CET_ENTRIES as u64,
        "radius {radius}: {stats:?}"
    );
    assert!(
        stats.cet_hits > 0 && stats.predicted_good > 0,
        "radius {radius}: {stats:?}"
    );
    stats.visit(|_, v| h.write(&v.to_le_bytes()));
    h.write(&(p.cet().len() as u64).to_le_bytes());
    h.write(p.save_state().to_string().as_bytes());
    h.finish()
}

#[test]
fn decisions_stats_and_snapshot_match_golden() {
    let got: Vec<(u64, u64)> = GOLDEN.iter().map(|&(r, _)| (r, digest(r))).collect();
    let printed: Vec<String> = got
        .iter()
        .map(|(r, d)| format!("({r}, {d:#018x})"))
        .collect();
    assert_eq!(got, GOLDEN, "recorded: [{}]", printed.join(", "));
}
