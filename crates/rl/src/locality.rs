//! RL-based CTR locality predictor (paper §4.2, Algorithm 1).

use crate::cet::Cet;
use crate::params::{CtrRewards, RlParams};
use crate::qtable::QTable;
use cosmos_common::json::Value;
use cosmos_common::state::{LoadResult, State};
use cosmos_common::{LineAddr, SplitMix64};
use cosmos_telemetry::Telemetry;

/// A CTR locality classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Locality {
    /// Likely to be re-referenced soon — retain in the LCR-CTR cache.
    Good,
    /// Unlikely to be re-referenced — prioritize for eviction. The default,
    /// as action 0.
    #[default]
    Bad,
}

impl Locality {
    /// The Q-table action index (bad = 0, good = 1).
    #[inline]
    pub const fn action(self) -> usize {
        match self {
            Locality::Bad => 0,
            Locality::Good => 1,
        }
    }

    /// Converts an action index back into a classification.
    ///
    /// # Panics
    ///
    /// Panics if `action > 1`.
    #[inline]
    pub const fn from_action(action: usize) -> Self {
        match action {
            0 => Locality::Bad,
            1 => Locality::Good,
            #[expect(clippy::panic, reason = "documented contract: callers pass 0 or 1")]
            _ => panic!("invalid action"), // cosmos-lint: allow(H4): documented contract of a const fn — callers pass 0 or 1
        }
    }

    /// Whether this is [`Locality::Good`].
    #[inline]
    pub const fn is_good(self) -> bool {
        matches!(self, Locality::Good)
    }

    /// Short display name ("Good" / "Bad"), used by snapshots.
    pub const fn name(self) -> &'static str {
        match self {
            Locality::Good => "Good",
            Locality::Bad => "Bad",
        }
    }

    /// Parses a name produced by [`Locality::name`].
    pub fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "Good" => Ok(Locality::Good),
            "Bad" => Ok(Locality::Bad),
            other => Err(format!("unknown locality `{other}`")),
        }
    }
}

/// Saved by [name](Locality::name).
impl State for Locality {
    fn save(&self) -> Value {
        self.name().into()
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        *self = Locality::from_name(v.as_str().ok_or("expected a string")?)?;
        Ok(())
    }
}

/// The outcome of one prediction: classification plus the 8-bit score the
/// LCR-CTR cache stores next to the line, and the evidence behind the
/// decision (Q-pair at decision time, the reward applied) so eviction
/// events can be traced back to the RL state that produced them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LocalityDecision {
    /// Predicted locality.
    pub locality: Locality,
    /// Quantized confidence score (|Q| of the chosen action).
    pub score: u8,
    /// Decision ordinal: the predictor's 0-based prediction count when
    /// this classification was made. Unique per predictor instance.
    pub id: u64,
    /// Q-value of the Good action at decision time (before TD updates).
    pub q_good: f32,
    /// Q-value of the Bad action at decision time (before TD updates).
    pub q_bad: f32,
    /// Reward applied by Algorithm 1 for this decision.
    pub reward: f32,
}

cosmos_common::counters! {
    /// Counters for the locality predictor (feeds paper Figures 9 and 13).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CtrLocalityStats {
        /// Total CTR accesses classified.
        pub predictions: u64,
        /// Classified good.
        pub predicted_good: u64,
        /// CET hits observed (ground-truth good locality).
        pub cet_hits: u64,
        /// CET evictions observed.
        pub cet_evictions: u64,
        /// Predictions that agreed with the CET outcome (hit↔good, miss↔bad).
        pub agreements: u64,
    }
}

impl CtrLocalityStats {
    /// Fraction of accesses classified good.
    pub fn good_fraction(&self) -> f64 {
        cosmos_common::stats::ratio(self.predicted_good, self.predictions)
    }

    /// Agreement rate between predictions and CET ground truth.
    pub fn agreement_rate(&self) -> f64 {
        cosmos_common::stats::ratio(self.agreements, self.predictions)
    }
}

/// The CTR locality agent: Q-table + CET, implementing Algorithm 1 in a
/// single `classify` call per CTR access.
///
/// # Examples
///
/// ```
/// use cosmos_rl::{CtrLocalityPredictor, params::RlParams};
/// use cosmos_common::LineAddr;
/// let mut p = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 8192, 0, 3);
/// let d = p.classify(LineAddr::new(1 << 34));
/// assert!(d.score <= 255);
/// ```
#[derive(Clone, Debug)]
pub struct CtrLocalityPredictor {
    qtable: QTable,
    cet: Cet,
    params: RlParams,
    rewards: CtrRewards,
    rng: SplitMix64,
    stats: CtrLocalityStats,
    telemetry: Telemetry,
}

// Parameters and rewards come from the config and are not saved. The CET
// checks that each restored entry's state is its address's.
cosmos_common::state! {
    CtrLocalityPredictor as "locality predictor" -> Value { qtable, cet, rng, stats }
}

impl CtrLocalityPredictor {
    /// Creates the predictor with Table-1 rewards, a CET of `cet_entries`,
    /// and a ±`radius`-line neighbourhood.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid or `cet_entries` is zero.
    pub fn new(params: RlParams, cet_entries: usize, radius: u64, seed: u64) -> Self {
        Self::with_rewards(params, CtrRewards::table1(), cet_entries, radius, seed)
    }

    /// Creates the predictor with explicit rewards (for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid or `cet_entries` is zero.
    pub fn with_rewards(
        params: RlParams,
        rewards: CtrRewards,
        cet_entries: usize,
        radius: u64,
        seed: u64,
    ) -> Self {
        params.validate();
        Self {
            qtable: QTable::new(params.num_states),
            cet: Cet::new(cet_entries, radius, params.num_states),
            params,
            rewards,
            rng: SplitMix64::new(seed),
            stats: CtrLocalityStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; each `classify` then reports its
    /// action and reward as sampled `rl_ctr_action` flight-recorder
    /// events. Observation only — decisions and training are unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CtrLocalityStats {
        &self.stats
    }

    /// The CET (read access, for diagnostics).
    pub fn cet(&self) -> &Cet {
        &self.cet
    }

    /// The Q-table (read access).
    pub fn qtable(&self) -> &QTable {
        &self.qtable
    }

    /// Classifies one CTR access and trains on it — the full Algorithm 1:
    /// decide (ε-greedy), check the CET neighbourhood for the reward,
    /// TD-update bootstrapped on `CET.head`, insert into the CET, and apply
    /// the eviction reward if the insertion displaced an entry.
    ///
    /// The CET records counter-line addresses; Algorithm 1's
    /// `ctr_addr ± 32` window is byte-granular, i.e. within the same 64 B
    /// counter line, so the default radius is 0 (exact counter-block
    /// match) with `radius` allowing wider spatial windows for sweeps. A
    /// CET hit therefore means "this counter block was re-referenced
    /// within the last `cet_entries` CTR accesses" — exactly the
    /// cacheability signal the LCR-CTR cache needs.
    ///
    /// The state index is hashed once and shared by the decision, both TD
    /// updates, and the score; the post-update Q-value flows out of
    /// [`QTable::update_toward`] so the table is never re-indexed. One
    /// [`Cet::touch`] answers the neighbourhood check and inserts the
    /// access; the bootstrap head is read before it, and after it the
    /// head is this access's own `(state, action)`.
    // cosmos-lint: hot
    pub fn classify(&mut self, ctr_line: LineAddr) -> LocalityDecision {
        let id = self.stats.predictions;
        self.stats.predictions += 1;
        let s = self.state_of(ctr_line);

        // Decision (lines 3-8). The Q-pair is captured *before* the TD
        // updates below: it is the evidence the decision was made on, not
        // the post-training values.
        let [q_bad, q_good] = self.qtable.pair(s);
        let action = if self.rng.chance(self.params.epsilon as f64) {
            Locality::from_action(self.rng.next_index(2))
        } else {
            Locality::from_action(self.qtable.best_action(s))
        };
        if action.is_good() {
            self.stats.predicted_good += 1;
        }

        // CET.head before this access joins the CET (lines 16-17).
        let head = self.cet.head();
        // Training: CET neighbourhood check (lines 9-15), inserting the
        // access (line 18) in the same probe.
        let (hit, evicted) = self.cet.touch(ctr_line.index(), action);
        let r = match (hit, action) {
            (true, Locality::Good) => {
                self.stats.cet_hits += 1;
                self.stats.agreements += 1;
                self.rewards.r_hg
            }
            (true, Locality::Bad) => {
                self.stats.cet_hits += 1;
                self.rewards.r_hb
            }
            (false, Locality::Good) => self.rewards.r_mg,
            (false, Locality::Bad) => {
                self.stats.agreements += 1;
                self.rewards.r_mb
            }
        };

        self.telemetry
            .rl_ctr_action(id, action.is_good(), r, q_good, q_bad);

        // Bootstrap on CET.head (lines 16-17).
        let boot = match head {
            Some((s2, _a2)) => self.qtable.max_q(s2),
            None => 0.0,
        };
        let target = r + self.params.gamma * boot;
        let mut q_sel = self
            .qtable
            .update_toward(s, action.action(), target, self.params.alpha);

        // Eviction rewards (lines 19-23), bootstrapped on the new head:
        // this access.
        if let Some(evicted) = evicted {
            self.stats.cet_evictions += 1;
            let r_evict = match evicted.action {
                Locality::Good => self.rewards.r_eg,
                Locality::Bad => self.rewards.r_eb,
            };
            let boot2 = self.qtable.max_q(s);
            let target2 = r_evict + self.params.gamma * boot2;
            let q_evict = self.qtable.update_toward(
                evicted.state,
                evicted.action.action(),
                target2,
                self.params.alpha,
            );
            // The evicted entry can alias the entry just trained (same
            // state and action); the score must see the *final* value.
            if evicted.state == s && evicted.action == action {
                q_sel = q_evict;
            }
        }

        LocalityDecision {
            locality: action,
            // Scale x4 before quantizing: CTR-locality Q-values live in a
            // narrow band (|r|max/(1-gamma) ~= 40 for the Table-1 rewards),
            // and the LCR cache ranks *within* the good class by this
            // score, so spending the 8-bit range on the occupied band
            // sharpens the ranking at zero hardware cost.
            score: (q_sel.abs() * 4.0).clamp(0.0, 255.0) as u8,
            id,
            q_good,
            q_bad,
            reward: r,
        }
    }

    /// The hashed RL state of a CTR line.
    #[inline]
    pub fn state_of(&self, ctr_line: LineAddr) -> usize {
        self.cet.state_of(ctr_line.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CTR_BASE: u64 = 1 << 34;

    fn predictor() -> CtrLocalityPredictor {
        CtrLocalityPredictor::new(
            RlParams {
                epsilon: 0.0,
                ..RlParams::ctr_defaults()
            },
            64,
            0,
            5,
        )
    }

    fn ctr(i: u64) -> LineAddr {
        LineAddr::new(CTR_BASE + i)
    }

    #[test]
    fn hot_ctr_learns_good_locality() {
        let mut p = predictor();
        for _ in 0..100 {
            p.classify(ctr(4));
        }
        let d = p.classify(ctr(4));
        assert_eq!(d.locality, Locality::Good, "repeated CTR must become good");
    }

    #[test]
    fn cold_stream_learns_bad_locality() {
        let mut p = predictor();
        // A long stream of never-repeating counter blocks.
        let mut last = LocalityDecision {
            locality: Locality::Good,
            score: 0,
            id: 0,
            q_good: 0.0,
            q_bad: 0.0,
            reward: 0.0,
        };
        for i in 0..2000u64 {
            last = p.classify(ctr(1000 + i));
        }
        assert_eq!(last.locality, Locality::Bad);
        assert!(p.stats().good_fraction() < 0.3);
    }

    #[test]
    fn mixed_stream_separates_hot_and_cold() {
        let mut p = predictor();
        let hot = ctr(5);
        let mut rng = cosmos_common::SplitMix64::new(3);
        for _ in 0..3000 {
            p.classify(hot);
            p.classify(ctr(10_000 + rng.next_below(1 << 30)));
        }
        assert_eq!(p.classify(hot).locality, Locality::Good);
        let cold = p.classify(ctr(999_999_999));
        assert_eq!(cold.locality, Locality::Bad);
    }

    #[test]
    fn spatial_neighbours_count_with_radius() {
        let mut p = CtrLocalityPredictor::new(
            RlParams {
                epsilon: 0.0,
                ..RlParams::ctr_defaults()
            },
            64,
            2, // ±2 counter lines
            5,
        );
        // Alternate between two counter lines 2 apart: each access finds
        // the other in the CET neighbourhood.
        for _ in 0..200 {
            p.classify(ctr(100));
            p.classify(ctr(102));
        }
        assert!(p.stats().cet_hits > 300, "neighbour hits must register");
        assert_eq!(p.classify(ctr(100)).locality, Locality::Good);
    }

    #[test]
    fn zero_radius_requires_exact_block() {
        let mut p = predictor();
        for _ in 0..200 {
            p.classify(ctr(100));
            p.classify(ctr(101));
        }
        // Both blocks repeat individually, so both CET-hit on re-access.
        assert!(p.stats().cet_hits > 300);
    }

    #[test]
    fn eviction_rewards_fire() {
        let mut p = predictor(); // CET capacity 64
        for i in 0..200u64 {
            p.classify(ctr(i * 1000));
        }
        assert!(p.stats().cet_evictions > 0);
    }

    #[test]
    fn score_reflects_confidence() {
        let mut p = predictor();
        for _ in 0..200 {
            p.classify(ctr(0));
        }
        let d = p.classify(ctr(0));
        assert!(d.score > 0, "confident prediction must carry a score");
    }

    /// A restored predictor must continue exactly where the original left
    /// off — same ε-greedy coin flips, same Q-values, same CET contents.
    #[test]
    fn snapshot_restores_predictor_exactly() {
        let mut live = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        for i in 0..2000u64 {
            live.classify(ctr(i % 37));
        }
        let saved = live.save_state();
        let mut restored = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        restored.load_state(&saved).unwrap();
        for i in 0..2000u64 {
            let line = ctr(i % 23);
            assert_eq!(live.classify(line), restored.classify(line), "access {i}");
        }
        assert_eq!(live.stats(), restored.stats());
        assert_eq!(live.cet().len(), restored.cet().len());
    }

    #[test]
    fn snapshot_rejects_wrong_geometry() {
        let mut live = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        live.classify(ctr(1));
        let saved = live.save_state();
        // Different CET capacity.
        let mut wrong = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 128, 0, 9);
        assert!(wrong.load_state(&saved).unwrap_err().contains("geometry"));
    }

    /// A CET entry whose state is outside the Q-table would restore and
    /// then index past the table on the next TD update.
    #[test]
    fn snapshot_rejects_cet_state_outside_the_qtable() {
        let mut live = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        live.classify(ctr(1));
        // The one CET entry and the head, which must agree, both move past
        // the last state.
        let (state, _) = live.cet().head().expect("one entry");
        let states = RlParams::ctr_defaults().num_states;
        let text = live.save_state().to_string().replace(
            &format!("\"state\":{state},"),
            &format!("\"state\":{states},"),
        );
        let saved = cosmos_common::json::parse(&text).expect("still JSON");
        let mut restored = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        let err = restored.load_state(&saved).unwrap_err();
        assert!(
            err.contains("CET entry state") && err.contains("out of"),
            "{err}"
        );
    }

    /// A CET entry's state is its address's hash; a snapshot that names
    /// another state, even one inside the Q-table, would train the wrong
    /// Q row on that entry's eviction.
    #[test]
    fn snapshot_rejects_cet_state_that_is_not_its_address_state() {
        let mut live = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        live.classify(ctr(1));
        live.classify(ctr(2));
        // The older entry (not the head) moves to the next state.
        let (addr, state) = (ctr(1).index(), live.state_of(ctr(1)));
        let other = (state + 1) % RlParams::ctr_defaults().num_states;
        let text = live.save_state().to_string().replace(
            &format!("\"addr\":{addr},\"state\":{state},"),
            &format!("\"addr\":{addr},\"state\":{other},"),
        );
        assert_ne!(text, live.save_state().to_string(), "entry not found");
        let saved = cosmos_common::json::parse(&text).expect("still JSON");
        let mut restored = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
        let err = restored.load_state(&saved).unwrap_err();
        assert!(
            err.contains(&format!("CET entry {addr} has state {other}")),
            "{err}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut p = CtrLocalityPredictor::new(RlParams::ctr_defaults(), 64, 0, 9);
            let mut seq = Vec::new();
            for i in 0..500u64 {
                seq.push(p.classify(ctr(i % 17)).locality);
            }
            seq
        };
        assert_eq!(run(), run());
    }
}
