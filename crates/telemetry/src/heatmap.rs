//! Per-set CTR-cache activity over time, for heatmap export.
//!
//! The CTR cache is where COSMOS's policies differ, so this tracks, per
//! cache set, accesses / misses / occupancy across windows of N CTR
//! accesses. Memory is bounded: when the window list would exceed its cap,
//! adjacent windows are merged pairwise and the window length doubles, so
//! an arbitrarily long run degrades resolution instead of growing.
//!
//! Closed windows live in one flat buffer per metric (window-major, one
//! `sets`-long row per window), and merging adds pairs in place, so
//! closing a window allocates nothing once the buffers have grown to
//! their cap.

/// CTR accesses per heatmap window, before any merge.
pub const WINDOW_LEN: u64 = 8192;

/// Windows a heatmap keeps before pair-merging halves its resolution.
pub const MAX_WINDOWS: usize = 256;

/// Per-set activity for one closed time window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeatmapWindow<'a> {
    /// Cumulative CTR-access count when this window closed.
    pub end_access: u64,
    /// Demand accesses per set during the window.
    pub accesses: &'a [u32],
    /// Misses per set during the window.
    pub misses: &'a [u32],
    /// Valid lines per set when the window closed.
    pub occupancy: &'a [u32],
}

/// Windowed per-set CTR-cache activity with bounded memory.
#[derive(Clone, Debug)]
pub struct CtrHeatmap {
    sets: usize,
    window_len: u64,
    max_windows: usize,
    in_window: u64,
    total_accesses: u64,
    cur_accesses: Vec<u32>,
    cur_misses: Vec<u32>,
    occupancy: Vec<u32>,
    // Closed windows: one end stamp each, and one `sets`-long row each in
    // the three flat per-metric buffers.
    ends: Vec<u64>,
    accesses: Vec<u32>,
    misses: Vec<u32>,
    occupancies: Vec<u32>,
}

impl CtrHeatmap {
    /// A heatmap over `sets` cache sets, closing a window every
    /// `window_len` accesses and keeping at most `max_windows` windows
    /// (both must be positive; `max_windows` ≥ 2 so pair-merging can halve
    /// the list).
    pub fn new(sets: usize, window_len: u64, max_windows: usize) -> Self {
        assert!(sets > 0 && window_len > 0 && max_windows >= 2);
        Self {
            sets,
            window_len,
            max_windows,
            in_window: 0,
            total_accesses: 0,
            cur_accesses: vec![0; sets],
            cur_misses: vec![0; sets],
            occupancy: vec![0; sets],
            ends: Vec::new(),
            accesses: Vec::new(),
            misses: Vec::new(),
            occupancies: Vec::new(),
        }
    }

    /// Number of cache sets tracked.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Current window length in CTR accesses (doubles on merge).
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Total CTR accesses recorded.
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Closed windows so far, oldest first.
    pub fn windows(&self) -> impl ExactSizeIterator<Item = HeatmapWindow<'_>> {
        let s = self.sets;
        self.ends
            .iter()
            .zip(self.accesses.chunks_exact(s))
            .zip(
                self.misses
                    .chunks_exact(s)
                    .zip(self.occupancies.chunks_exact(s)),
            )
            .map(
                |((&end_access, accesses), (misses, occupancy))| HeatmapWindow {
                    end_access,
                    accesses,
                    misses,
                    occupancy,
                },
            )
    }

    /// Records one demand CTR access. `grew` flags a miss that filled a
    /// previously invalid way (occupancy +1, no eviction).
    pub fn record(&mut self, set: usize, hit: bool, grew: bool) {
        debug_assert!(set < self.sets);
        self.total_accesses += 1;
        self.in_window += 1;
        self.cur_accesses[set] += 1;
        if !hit {
            self.cur_misses[set] += 1;
        }
        if grew {
            self.occupancy[set] += 1;
        }
        if self.in_window >= self.window_len {
            self.close_window();
        }
    }

    /// Closes any partial window so `windows()` covers every access.
    pub fn finish(&mut self) {
        if self.in_window > 0 {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        self.ends.push(self.total_accesses);
        self.accesses.extend_from_slice(&self.cur_accesses);
        self.misses.extend_from_slice(&self.cur_misses);
        self.occupancies.extend_from_slice(&self.occupancy);
        self.cur_accesses.fill(0);
        self.cur_misses.fill(0);
        self.in_window = 0;
        if self.ends.len() > self.max_windows {
            self.merge_pairs();
        }
    }

    /// Merges adjacent window pairs in place: counts add, the later
    /// window's end stamp and end-of-window occupancy win, and an odd
    /// trailing window moves down unchanged. Halves the list, doubles the
    /// window length.
    fn merge_pairs(&mut self) {
        let n = self.ends.len();
        let s = self.sets;
        for i in 0..n.div_ceil(2) {
            let (a, b) = (2 * i, (2 * i + 1).min(n - 1));
            self.ends[i] = self.ends[b];
            self.occupancies.copy_within(b * s..(b + 1) * s, i * s);
            for buf in [&mut self.accesses, &mut self.misses] {
                for k in 0..s {
                    let pair = if a == b { 0 } else { buf[b * s + k] };
                    buf[i * s + k] = buf[a * s + k] + pair;
                }
            }
        }
        let kept = n.div_ceil(2);
        self.ends.truncate(kept);
        for buf in [&mut self.accesses, &mut self.misses, &mut self.occupancies] {
            buf.truncate(kept * s);
        }
        self.window_len *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(h: &CtrHeatmap) -> u64 {
        h.windows()
            .flat_map(|w| w.accesses)
            .map(|&n| u64::from(n))
            .sum()
    }

    #[test]
    fn windows_close_at_window_len() {
        let mut h = CtrHeatmap::new(4, 3, 8);
        for i in 0..7 {
            h.record(i % 4, i % 2 == 0, false);
        }
        let ends: Vec<u64> = h.windows().map(|w| w.end_access).collect();
        assert_eq!(ends, [3, 6]);
        h.finish();
        let ends: Vec<u64> = h.windows().map(|w| w.end_access).collect();
        assert_eq!(ends, [3, 6, 7]);
        assert_eq!(total(&h), h.total_accesses());
    }

    #[test]
    fn occupancy_grows_only_on_grew_and_carries_forward() {
        let mut h = CtrHeatmap::new(2, 2, 8);
        h.record(0, false, true);
        h.record(0, false, true);
        h.record(1, true, false);
        h.record(0, false, false); // miss with eviction: occupancy unchanged
        let occ: Vec<&[u32]> = h.windows().map(|w| w.occupancy).collect();
        assert_eq!(occ, [[2, 0], [2, 0]]);
    }

    #[test]
    fn odd_window_count_merges_without_losing_the_tail() {
        // max_windows 2: the third close triggers a merge over an odd
        // window count — the unpaired trailing window must survive
        // verbatim, not be dropped or double-counted.
        let mut h = CtrHeatmap::new(2, 2, 2);
        h.record(0, false, false);
        h.record(0, true, false); // window 1: set0 = 2 accesses, 1 miss
        h.record(1, false, false);
        h.record(1, false, false); // window 2: set1 = 2 accesses, 2 misses
        h.record(0, false, true);
        h.record(1, true, false); // window 3 closes → 3 > 2 → merge
        let w: Vec<HeatmapWindow<'_>> = h.windows().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(h.window_len(), 4);
        // Pair (w1, w2) merged; w3 is the odd tail, kept as-is.
        assert_eq!(w[0].end_access, 4);
        assert_eq!(w[0].accesses, [2, 2]);
        assert_eq!(w[0].misses, [1, 2]);
        assert_eq!(w[1].end_access, 6);
        assert_eq!(w[1].accesses, [1, 1]);
        assert_eq!(w[1].misses, [1, 0]);
        assert_eq!(w[1].occupancy, [1, 0]);
        // Conservation across the merge.
        assert_eq!(total(&h), h.total_accesses());
    }

    #[test]
    fn merging_bounds_memory_and_doubles_window_len() {
        let mut h = CtrHeatmap::new(2, 1, 4);
        for i in 0..64 {
            h.record(i % 2, false, false);
        }
        h.finish();
        assert!(h.windows().len() <= 5, "got {}", h.windows().len());
        assert!(h.window_len() > 1);
        // No accesses lost to merging.
        assert_eq!(total(&h), h.total_accesses());
        // Windows stay ordered and end at the final access count.
        let ends: Vec<u64> = h.windows().map(|w| w.end_access).collect();
        assert!(ends.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(*ends.last().unwrap(), 64);
    }
}
