//! Hardware-budget Q-table: two 8-bit Q-values per entry (16 bits/entry),
//! exactly the storage the paper's Table 2 accounts for.
//!
//! [`QuantizedQTable`] mirrors the [`crate::QTable`] interface but stores
//! each Q-value as a signed 8-bit fixed-point number with a 2-bit fraction
//! (range ±15.75, resolution 0.25) and performs the TD update with a
//! shift-based learning rate (α = 2^-k), as the hardware would. The unit
//! tests double as the ablation: on binary prediction tasks the quantized
//! agent reaches the same greedy policy as the f32 agent.

/// A `num_states × 2` table of 8-bit fixed-point Q-values.
///
/// # Examples
///
/// ```
/// use cosmos_rl::quantized::QuantizedQTable;
/// let mut q = QuantizedQTable::new(1024, 3); // alpha = 1/8
/// for _ in 0..32 { q.update(5, 1, 10.0); }
/// assert_eq!(q.best_action(5), 1);
/// ```
#[derive(Clone, Debug)]
pub struct QuantizedQTable {
    /// Flat `2 × num_states` array, both actions of a state adjacent —
    /// the whole entry is one 16-bit load, exactly the SRAM word the
    /// paper's hardware budget describes.
    q: Vec<i8>,
    alpha_shift: u32,
}

// Raw fixed-point values; the learning rate must match the constructed one.
cosmos_common::state! { QuantizedQTable -> Value { alpha_shift: fixed, q } }

/// Fixed-point fraction bits (values are `i8 / 4`).
const FRAC_BITS: u32 = 2;

impl QuantizedQTable {
    /// Creates a zeroed table with learning rate `2^-alpha_shift`.
    ///
    /// # Panics
    ///
    /// Panics if `num_states == 0` or `alpha_shift > 6`.
    pub fn new(num_states: usize, alpha_shift: u32) -> Self {
        assert!(num_states > 0, "Q-table must have states");
        assert!(
            alpha_shift <= 6,
            "alpha below 1/64 cannot move 8-bit values"
        );
        Self {
            q: vec![0; num_states * 2],
            alpha_shift,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.q.len() / 2
    }

    /// Both raw fixed-point action values of `state` in one load.
    #[inline]
    pub fn pair(&self, state: usize) -> [i8; 2] {
        [self.q[2 * state], self.q[2 * state + 1]]
    }

    /// The Q-value of `(state, action)`, dequantized.
    #[inline]
    pub fn q(&self, state: usize, action: usize) -> f32 {
        assert!(action < 2, "action {action} out of range");
        self.q[2 * state + action] as f32 / (1 << FRAC_BITS) as f32
    }

    /// The greedy action (ties resolve to action 0).
    #[inline]
    pub fn best_action(&self, state: usize) -> usize {
        let [a, b] = self.pair(state);
        usize::from(b > a)
    }

    /// `max_a Q(state, a)`, dequantized.
    #[inline]
    pub fn max_q(&self, state: usize) -> f32 {
        self.q(state, self.best_action(state))
    }

    /// Shift-based TD update toward `target` (saturating fixed-point).
    #[inline]
    pub fn update(&mut self, state: usize, action: usize, target: f32) {
        assert!(action < 2, "action {action} out of range");
        let t_fixed =
            (target * (1 << FRAC_BITS) as f32).clamp(i16::MIN as f32, i16::MAX as f32) as i16;
        let cur = self.q[2 * state + action] as i16;
        let delta = (t_fixed - cur) >> self.alpha_shift;
        // Guarantee progress: a non-zero error always moves at least one ULP.
        let delta = if delta == 0 && t_fixed != cur {
            (t_fixed - cur).signum()
        } else {
            delta
        };
        self.q[2 * state + action] = (cur + delta).clamp(i8::MIN as i16, i8::MAX as i16) as i8;
    }

    /// The magnitude score as the LCR cache would store it.
    #[inline]
    pub fn score(&self, state: usize, action: usize) -> u8 {
        assert!(action < 2, "action {action} out of range");
        self.q[2 * state + action].unsigned_abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QTable;
    use cosmos_common::SplitMix64;

    #[test]
    fn learns_preferred_action() {
        let mut q = QuantizedQTable::new(16, 3);
        for _ in 0..64 {
            q.update(3, 0, -10.0);
            q.update(3, 1, 12.0);
        }
        assert_eq!(q.best_action(3), 1);
        assert!(q.q(3, 1) > 5.0);
        assert!(q.q(3, 0) < -5.0);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut q = QuantizedQTable::new(2, 0); // alpha = 1
        for _ in 0..100 {
            q.update(0, 0, 1000.0);
            q.update(0, 1, -1000.0);
        }
        assert!((q.q(0, 0) - 31.75).abs() < 0.01);
        assert!((q.q(0, 1) + 32.0).abs() < 0.01);
    }

    #[test]
    fn nonzero_error_always_progresses() {
        let mut q = QuantizedQTable::new(2, 6); // tiny alpha
        q.update(0, 0, 0.25);
        assert!(q.q(0, 0) > 0.0, "minimum-step rule must apply");
    }

    #[test]
    fn ablation_matches_f32_greedy_policy() {
        // Train both tables on the same noisy binary task; their greedy
        // policies must agree on (almost) all states.
        let mut qf = QTable::new(64);
        let mut qq = QuantizedQTable::new(64, 3);
        let mut rng = SplitMix64::new(9);
        for _ in 0..20_000 {
            let s = rng.next_index(64);
            // Ground truth: high states prefer action 1.
            let good = usize::from(s >= 32);
            let a = rng.next_index(2);
            let noisy = rng.chance(0.1);
            let r = if (a == good) != noisy { 10.0 } else { -10.0 };
            qf.update_toward(s, a, r, 0.125);
            qq.update(s, a, r);
        }
        let agree = (0..64)
            .filter(|&s| qf.best_action(s) == qq.best_action(s))
            .count();
        assert!(agree >= 60, "only {agree}/64 states agree");
    }

    #[test]
    fn score_is_magnitude() {
        let mut q = QuantizedQTable::new(2, 0);
        q.update(0, 0, -8.0);
        assert_eq!(q.score(0, 0), 32); // 8.0 * 4
    }
}
