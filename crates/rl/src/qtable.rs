//! Dense Q-table over hashed address states.

/// A `num_states × 2` table of Q-values.
///
/// Values are learned as `f32`. The paper's hardware stores two 8-bit
/// Q-values per entry (16 bits/entry, Table 2); the 8-bit score the LCR
/// cache keeps is derived from the `f32` value in
/// [`crate::CtrLocalityPredictor::classify`].
///
/// Storage is one flat `Vec<f32>` with the two actions of a state adjacent
/// (`q[2s]`, `q[2s+1]`): each access touches exactly one 8-byte entry pair,
/// and [`QTable::pair`] hands both action values to callers in a single
/// load so predict/score/update paths index the table once per access.
///
/// # Examples
///
/// ```
/// use cosmos_rl::QTable;
/// let mut q = QTable::new(1024);
/// q.update_toward(5, 1, 10.0, 0.5);
/// assert_eq!(q.best_action(5), 1);
/// ```
#[derive(Clone, Debug)]
pub struct QTable {
    q: Vec<f32>,
}

impl QTable {
    /// Creates a zero-initialized table.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero.
    pub fn new(num_states: usize) -> Self {
        assert!(num_states > 0, "Q-table must have states");
        Self {
            q: vec![0.0; num_states * 2],
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.q.len() / 2
    }

    /// Both action values of `state` in one load.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[inline]
    pub fn pair(&self, state: usize) -> [f32; 2] {
        [self.q[2 * state], self.q[2 * state + 1]]
    }

    /// The Q-value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    #[inline]
    pub fn q(&self, state: usize, action: usize) -> f32 {
        assert!(action < 2, "action {action} out of range");
        self.q[2 * state + action]
    }

    /// The greedy action for `state` (ties resolve to action 0).
    #[inline]
    pub fn best_action(&self, state: usize) -> usize {
        let [a, b] = self.pair(state);
        usize::from(b > a)
    }

    /// `max_a Q(state, a)`.
    #[inline]
    pub fn max_q(&self, state: usize) -> f32 {
        let [a, b] = self.pair(state);
        a.max(b)
    }

    /// TD update: `Q ← Q + α (target − Q)`. Returns the updated value, so
    /// hot callers that need the post-update Q (e.g. for the locality
    /// score) don't re-index the table.
    #[inline]
    pub fn update_toward(&mut self, state: usize, action: usize, target: f32, alpha: f32) -> f32 {
        let q = &mut self.q[2 * state + action];
        *q += alpha * (target - *q);
        *q
    }

    /// Resets all values to zero.
    pub fn reset(&mut self) {
        self.q.iter_mut().for_each(|e| *e = 0.0);
    }
}

// Q-values are saved as IEEE bit patterns, so a restore is bit-exact.
cosmos_common::state! { QTable -> Value { q_bits = q } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_prefers_action_zero() {
        let q = QTable::new(16);
        assert_eq!(q.best_action(3), 0);
        assert_eq!(q.max_q(3), 0.0);
    }

    #[test]
    fn update_moves_toward_target() {
        let mut q = QTable::new(4);
        q.update_toward(0, 0, 10.0, 0.5);
        assert_eq!(q.q(0, 0), 5.0);
        let after = q.update_toward(0, 0, 10.0, 0.5);
        assert_eq!(q.q(0, 0), 7.5);
        assert_eq!(after, 7.5, "update must return the post-update value");
    }

    #[test]
    fn best_action_tracks_learning() {
        let mut q = QTable::new(4);
        q.update_toward(1, 1, 4.0, 1.0);
        assert_eq!(q.best_action(1), 1);
        q.update_toward(1, 0, 9.0, 1.0);
        assert_eq!(q.best_action(1), 0);
    }

    #[test]
    fn pair_matches_scalar_reads() {
        let mut q = QTable::new(4);
        q.update_toward(2, 0, -3.0, 1.0);
        q.update_toward(2, 1, 8.0, 0.5);
        assert_eq!(q.pair(2), [q.q(2, 0), q.q(2, 1)]);
        assert_eq!(q.pair(0), [0.0, 0.0]);
    }

    #[test]
    fn bounded_q_values_under_bounded_rewards() {
        // With targets r + γ maxQ and |r| ≤ R, Q stays within R/(1-γ).
        let mut q = QTable::new(8);
        let (gamma, r_max) = (0.9f32, 30.0f32);
        let bound = r_max / (1.0 - gamma) + 1.0;
        let mut rng = cosmos_common::SplitMix64::new(4);
        for _ in 0..100_000 {
            let s = rng.next_index(8);
            let a = rng.next_index(2);
            let r = (rng.next_f64() as f32 - 0.5) * 2.0 * r_max;
            let target = r + gamma * q.max_q(rng.next_index(8));
            q.update_toward(s, a, target, 0.1);
        }
        for s in 0..8 {
            for a in 0..2 {
                assert!(q.q(s, a).abs() <= bound, "unbounded Q at ({s},{a})");
            }
        }
    }

    #[test]
    fn reset_zeroes() {
        let mut q = QTable::new(2);
        q.update_toward(0, 1, 5.0, 1.0);
        q.reset();
        assert_eq!(q.q(0, 1), 0.0);
    }
}
