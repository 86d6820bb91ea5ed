//! RL-based data location predictor (paper §4.4, Algorithm 3).

use crate::params::{DataRewards, RlParams};
use crate::qtable::QTable;
use cosmos_common::hash::hash_address;
use cosmos_common::{PhysAddr, SplitMix64};
use cosmos_telemetry::Telemetry;

/// Where a piece of data actually resides (or is predicted to reside)
/// after an L1 miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DataLocation {
    /// In L2 or the LLC.
    OnChip,
    /// In DRAM.
    OffChip,
}

impl DataLocation {
    /// The Q-table action index (on-chip = 0, off-chip = 1).
    #[inline]
    pub const fn action(self) -> usize {
        match self {
            DataLocation::OnChip => 0,
            DataLocation::OffChip => 1,
        }
    }

    /// Converts an action index back into a location.
    ///
    /// # Panics
    ///
    /// Panics if `action > 1`.
    #[inline]
    pub const fn from_action(action: usize) -> Self {
        match action {
            0 => DataLocation::OnChip,
            1 => DataLocation::OffChip,
            #[expect(clippy::panic, reason = "documented contract: callers pass 0 or 1")]
            _ => panic!("invalid action"), // cosmos-lint: allow(H4): documented contract of a const fn — callers pass 0 or 1
        }
    }
}

cosmos_common::counters! {
    /// Prediction-quality counters (feeds paper Figure 12).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DataLocationStats {
        /// Predicted on-chip, was on-chip (correct).
        pub correct_onchip: u64,
        /// Predicted off-chip, was off-chip (correct).
        pub correct_offchip: u64,
        /// Predicted off-chip, was on-chip (wrong — DRAM fetch killed).
        pub wrong_offchip: u64,
        /// Predicted on-chip, was off-chip (wrong — serialized fallback).
        pub wrong_onchip: u64,
    }
}

impl DataLocationStats {
    /// Total resolved predictions.
    pub const fn total(&self) -> u64 {
        self.correct_onchip + self.correct_offchip + self.wrong_offchip + self.wrong_onchip
    }

    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        cosmos_common::stats::ratio(self.correct_onchip + self.correct_offchip, self.total())
    }

    /// Fraction of predictions that said off-chip.
    pub fn offchip_fraction(&self) -> f64 {
        cosmos_common::stats::ratio(self.correct_offchip + self.wrong_offchip, self.total())
    }
}

/// The ε-greedy tabular agent of Algorithm 3.
///
/// # Examples
///
/// ```
/// use cosmos_rl::{DataLocationPredictor, DataLocation, params::RlParams};
/// use cosmos_common::PhysAddr;
/// let mut p = DataLocationPredictor::new(RlParams::data_defaults(), 42);
/// let a = PhysAddr::new(0x1234_0000);
/// // Train it: this address is always off-chip.
/// for _ in 0..50 {
///     let pred = p.predict(a);
///     p.learn(a, pred, DataLocation::OffChip);
/// }
/// assert_eq!(p.greedy(a), DataLocation::OffChip);
/// ```
#[derive(Clone, Debug)]
pub struct DataLocationPredictor {
    qtable: QTable,
    params: RlParams,
    rewards: DataRewards,
    rng: SplitMix64,
    stats: DataLocationStats,
    telemetry: Telemetry,
}

// Parameters and rewards come from the config and are not saved.
cosmos_common::state! {
    DataLocationPredictor as "data-location predictor" -> Value { qtable, rng, stats }
}

impl DataLocationPredictor {
    /// Creates the predictor with Table-1 rewards.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: RlParams, seed: u64) -> Self {
        Self::with_rewards(params, DataRewards::table1(), seed)
    }

    /// Creates the predictor with explicit rewards (for sweeps).
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn with_rewards(params: RlParams, rewards: DataRewards, seed: u64) -> Self {
        params.validate();
        Self {
            qtable: QTable::new(params.num_states),
            params,
            rewards,
            rng: SplitMix64::new(seed),
            stats: DataLocationStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; each resolved prediction then feeds
    /// sampled `rl_data_action` flight-recorder events.
    /// Observation only — predictions and training are unaffected.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Accumulated prediction statistics.
    pub fn stats(&self) -> &DataLocationStats {
        &self.stats
    }

    /// The underlying Q-table (read access, for scores/diagnostics).
    pub fn qtable(&self) -> &QTable {
        &self.qtable
    }

    /// ε-greedy prediction for an L1-missed address.
    pub fn predict(&mut self, addr: PhysAddr) -> DataLocation {
        self.predict_with_state(addr).0
    }

    /// ε-greedy prediction plus the hashed state it was made in, so the
    /// later [`DataLocationPredictor::learn_at`] call on the resolved
    /// outcome reuses the index instead of re-hashing the address.
    ///
    /// RNG discipline matches [`DataLocationPredictor::predict`] exactly:
    /// the ε-coin is always drawn, the uniform action only when exploring.
    // cosmos-lint: hot
    pub fn predict_with_state(&mut self, addr: PhysAddr) -> (DataLocation, usize) {
        let s = self.state_of(addr);
        let loc = if self.rng.chance(self.params.epsilon as f64) {
            DataLocation::from_action(self.rng.next_index(2))
        } else {
            DataLocation::from_action(self.qtable.best_action(s))
        };
        (loc, s)
    }

    /// The greedy (no-exploration) prediction.
    pub fn greedy(&self, addr: PhysAddr) -> DataLocation {
        let s = self.state_of(addr);
        DataLocation::from_action(self.qtable.best_action(s))
    }

    /// Trains on the resolved outcome (Algorithm 3, lines 8–20): assigns
    /// the reward for (`predicted`, `actual`) and applies the TD update
    /// bootstrapped on the same state's max-Q.
    pub fn learn(&mut self, addr: PhysAddr, predicted: DataLocation, actual: DataLocation) {
        self.learn_at(self.state_of(addr), predicted, actual);
    }

    /// [`DataLocationPredictor::learn`] with the state already hashed
    /// (from [`DataLocationPredictor::predict_with_state`]).
    // cosmos-lint: hot
    pub fn learn_at(&mut self, s: usize, predicted: DataLocation, actual: DataLocation) {
        let r = match (actual, predicted) {
            (DataLocation::OnChip, DataLocation::OnChip) => {
                self.stats.correct_onchip += 1;
                self.rewards.r_hi
            }
            (DataLocation::OnChip, DataLocation::OffChip) => {
                self.stats.wrong_offchip += 1;
                self.rewards.r_ho
            }
            (DataLocation::OffChip, DataLocation::OffChip) => {
                self.stats.correct_offchip += 1;
                self.rewards.r_mo
            }
            (DataLocation::OffChip, DataLocation::OnChip) => {
                self.stats.wrong_onchip += 1;
                self.rewards.r_mi
            }
        };
        self.telemetry
            .rl_data_action(predicted == DataLocation::OffChip, predicted == actual);
        let target = r + self.params.gamma * self.qtable.max_q(s);
        self.qtable
            .update_toward(s, predicted.action(), target, self.params.alpha);
    }

    /// The hashed RL state of an address.
    #[inline]
    pub fn state_of(&self, addr: PhysAddr) -> usize {
        hash_address(addr, self.params.num_states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(epsilon: f32) -> DataLocationPredictor {
        DataLocationPredictor::new(
            RlParams {
                epsilon,
                ..RlParams::data_defaults()
            },
            7,
        )
    }

    #[test]
    fn learns_constant_offchip_address() {
        let mut p = predictor(0.0);
        let a = PhysAddr::new(0xAA00);
        for _ in 0..30 {
            let pred = p.predict(a);
            p.learn(a, pred, DataLocation::OffChip);
        }
        assert_eq!(p.greedy(a), DataLocation::OffChip);
        assert!(p.stats().accuracy() > 0.8);
    }

    #[test]
    fn learns_constant_onchip_address() {
        let mut p = predictor(0.0);
        let a = PhysAddr::new(0xBB00);
        for _ in 0..30 {
            let pred = p.predict(a);
            p.learn(a, pred, DataLocation::OnChip);
        }
        assert_eq!(p.greedy(a), DataLocation::OnChip);
    }

    #[test]
    fn adapts_to_changed_behavior() {
        let mut p = predictor(0.0);
        let a = PhysAddr::new(0xCC00);
        for _ in 0..50 {
            let pred = p.predict(a);
            p.learn(a, pred, DataLocation::OffChip);
        }
        assert_eq!(p.greedy(a), DataLocation::OffChip);
        for _ in 0..200 {
            let pred = p.predict(a);
            p.learn(a, pred, DataLocation::OnChip);
        }
        assert_eq!(p.greedy(a), DataLocation::OnChip, "must re-learn online");
    }

    #[test]
    fn exploration_rate_respected() {
        let mut p = predictor(1.0); // always explore
        let a = PhysAddr::new(0xDD00);
        // Train greedy toward off-chip...
        for _ in 0..50 {
            p.learn(a, DataLocation::OffChip, DataLocation::OffChip);
        }
        // ...but with epsilon=1 predictions are uniform random.
        let n = 10_000;
        let onchip = (0..n)
            .filter(|_| p.predict(a) == DataLocation::OnChip)
            .count();
        let frac = onchip as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "exploring frac={frac}");
    }

    #[test]
    fn stats_quadrants() {
        let mut p = predictor(0.0);
        let a = PhysAddr::new(0x100);
        p.learn(a, DataLocation::OnChip, DataLocation::OnChip);
        p.learn(a, DataLocation::OnChip, DataLocation::OffChip);
        p.learn(a, DataLocation::OffChip, DataLocation::OnChip);
        p.learn(a, DataLocation::OffChip, DataLocation::OffChip);
        let s = p.stats();
        assert_eq!(s.correct_onchip, 1);
        assert_eq!(s.wrong_onchip, 1);
        assert_eq!(s.wrong_offchip, 1);
        assert_eq!(s.correct_offchip, 1);
        assert_eq!(s.accuracy(), 0.5);
        assert_eq!(s.offchip_fraction(), 0.5);
    }

    /// A restored predictor must continue exactly where the original left
    /// off — identical exploration stream and bit-identical Q-values.
    #[test]
    fn snapshot_restores_predictor_exactly() {
        let mut live = predictor(0.3);
        let mut rng = cosmos_common::SplitMix64::new(0xDA7A);
        let drive = |p: &mut DataLocationPredictor, rng: &mut cosmos_common::SplitMix64| {
            let a = PhysAddr::new(rng.next_index(4096) as u64 * 64);
            let pred = p.predict(a);
            let actual = if rng.chance(0.5) {
                DataLocation::OnChip
            } else {
                DataLocation::OffChip
            };
            p.learn(a, pred, actual);
            pred
        };
        for _ in 0..2000 {
            drive(&mut live, &mut rng);
        }
        let saved = live.save_state();
        let mut restored = predictor(0.3);
        restored.load_state(&saved).unwrap();
        let mut rng2 = rng;
        for i in 0..2000 {
            assert_eq!(
                drive(&mut live, &mut rng),
                drive(&mut restored, &mut rng2),
                "access {i}"
            );
        }
        assert_eq!(live.stats(), restored.stats());
    }

    #[test]
    fn distinct_addresses_learn_independently() {
        let mut p = predictor(0.0);
        let a = PhysAddr::new(0x10_0000);
        let b = PhysAddr::new(0x20_0000);
        for _ in 0..30 {
            p.learn(a, p.greedy(a), DataLocation::OffChip);
            p.learn(b, p.greedy(b), DataLocation::OnChip);
        }
        assert_eq!(p.greedy(a), DataLocation::OffChip);
        assert_eq!(p.greedy(b), DataLocation::OnChip);
    }
}
