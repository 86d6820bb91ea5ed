//! The bank/row-buffer DRAM model.

use crate::config::DramConfig;
use cosmos_common::timing::ServiceQueue;
use cosmos_common::{Cycle, LineAddr, LINE_SIZE};
use cosmos_telemetry::Probe;

/// How a request interacted with its bank's row buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was idle/closed; an activate was needed.
    Closed,
    /// A different row was open; precharge + activate were needed.
    Conflict,
}

cosmos_common::counters! {
    /// Statistics accumulated by [`Dram`].
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DramStats {
        /// Read requests served.
        pub reads: u64,
        /// Write requests served.
        pub writes: u64,
        /// Row-buffer hits.
        pub row_hits: u64,
        /// Closed-bank activations.
        pub row_closed: u64,
        /// Row conflicts.
        pub row_conflicts: u64,
        /// Total cycles requests spent queued behind busy banks.
        pub queue_cycles: u64,
    }
}

impl DramStats {
    /// Total requests.
    pub const fn requests(&self) -> u64 {
        self.reads + self.writes
    }

    /// Row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        cosmos_common::stats::ratio(self.row_hits, self.requests())
    }

    /// Total bytes moved.
    pub const fn bytes(&self) -> u64 {
        self.requests() * LINE_SIZE as u64
    }
}

/// Precomputed shift/mask form of the line → (bank, row) mapping. All
/// geometry dimensions are powers of two (validated), so the divisions in
/// the mapping reduce to shifts computed once at construction.
#[derive(Clone, Copy, Debug)]
struct LineMap {
    /// `channels - 1`.
    ch_mask: u64,
    /// `log2(channels)`.
    ch_shift: u32,
    /// `log2(row_bytes / LINE_SIZE)`.
    row_shift: u32,
    /// `banks_per_channel - 1`.
    bank_mask: usize,
    /// `log2(banks_per_channel)`.
    bank_shift: u32,
    /// `banks_per_channel` (channel stride in global bank indices).
    bank_stride: usize,
    /// Fixed-latency ablation: everything maps to bank 0, row 0.
    fixed: bool,
}

impl LineMap {
    fn new(config: &DramConfig) -> Self {
        let fixed = config.row_bytes == usize::MAX;
        let lines_per_row = if fixed {
            1
        } else {
            config.row_bytes / LINE_SIZE
        };
        assert!(lines_per_row > 0, "row must hold at least one line");
        Self {
            ch_mask: config.channels as u64 - 1,
            ch_shift: config.channels.trailing_zeros(),
            row_shift: lines_per_row.trailing_zeros(),
            bank_mask: config.banks_per_channel - 1,
            bank_shift: config.banks_per_channel.trailing_zeros(),
            bank_stride: config.banks_per_channel,
            fixed,
        }
    }

    /// Maps a line to `(global bank index, row id)`.
    ///
    /// Interleaving: consecutive lines rotate across channels, then banks,
    /// so streaming accesses exploit bank-level parallelism; rows are the
    /// higher-order bits.
    #[inline]
    fn map(&self, line: LineAddr) -> (usize, u64) {
        if self.fixed {
            return (0, 0);
        }
        let idx = line.index();
        let ch = (idx & self.ch_mask) as usize;
        let row_group = (idx >> self.ch_shift) >> self.row_shift;
        let bank = row_group as usize & self.bank_mask;
        let row = row_group >> self.bank_shift;
        (ch * self.bank_stride + bank, row)
    }
}

/// The DRAM device model: per-bank row buffers and busy times.
#[derive(Debug)]
pub struct Dram {
    config: DramConfig,
    map: LineMap,
    /// Per bank, its open row plus one; 0 while the bank is closed.
    open_rows: Vec<u64>,
    /// Per bank, the queue of requests it serves.
    queues: Vec<ServiceQueue>,
    stats: DramStats,
    probe: Probe,
}

// The line map is derived from the config and not saved.
cosmos_common::state! { Dram -> Value { open_rows, busy_until = queues, stats } }

impl Dram {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`DramConfig::validate`]).
    pub fn new(config: DramConfig) -> Self {
        config.validate();
        Self {
            config,
            map: LineMap::new(&config),
            open_rows: vec![0; config.total_banks()],
            queues: vec![ServiceQueue::new(); config.total_banks()],
            stats: DramStats::default(),
            probe: Probe::default(),
        }
    }

    /// Attaches a telemetry probe; every access then feeds the
    /// `dram.queue_delay_cycles` histogram and (sampled) `dram_access`
    /// events. Observation only — timing and stats are unaffected.
    pub fn set_probe(&mut self, probe: Probe) {
        self.probe = probe;
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Serves a line request issued at `now`; returns its completion time.
    pub fn access(&mut self, line: LineAddr, now: Cycle, write: bool) -> Cycle {
        let (bank_idx, row) = self.map.map(line);
        let t = self.config.timings;
        let open = &mut self.open_rows[bank_idx];

        let outcome = if *open == row + 1 {
            RowBufferOutcome::Hit
        } else if *open == 0 {
            RowBufferOutcome::Closed
        } else {
            RowBufferOutcome::Conflict
        };
        *open = row + 1;
        let service = match outcome {
            RowBufferOutcome::Hit => t.row_hit(),
            RowBufferOutcome::Closed => t.row_closed(),
            RowBufferOutcome::Conflict => t.row_conflict(),
        };

        let served = self.queues[bank_idx].serve(now, service);

        self.stats.queue_cycles += served.queued;
        match outcome {
            RowBufferOutcome::Hit => self.stats.row_hits += 1,
            RowBufferOutcome::Closed => self.stats.row_closed += 1,
            RowBufferOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        if write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
        self.probe
            .dram_access(served.queued, outcome == RowBufferOutcome::Hit, write);
        served.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::ddr4_2400())
    }

    #[test]
    fn first_access_is_closed_bank() {
        let mut d = dram();
        let t0 = Cycle::new(100);
        let done = d.access(LineAddr::new(0), t0, false);
        assert_eq!(
            done - t0,
            Cycle::new(DramConfig::ddr4_2400().timings.row_closed())
        );
        assert_eq!(d.stats().row_closed, 1);
    }

    #[test]
    fn same_row_hits() {
        let mut d = dram();
        let mut now = Cycle::new(0);
        now = d.access(LineAddr::new(0), now, false);
        // Lines 0 and 2 share channel 0; same row (row covers 128 lines/ch).
        let done = d.access(LineAddr::new(2), now, false);
        assert_eq!(
            done - now,
            Cycle::new(DramConfig::ddr4_2400().timings.row_hit())
        );
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn conflict_when_rows_differ() {
        let cfg = DramConfig {
            channels: 1,
            banks_per_channel: 1,
            row_bytes: 8192,
            ..DramConfig::ddr4_2400()
        };
        let mut d = Dram::new(cfg);
        let mut now = Cycle::new(0);
        now = d.access(LineAddr::new(0), now, false);
        // Line 128 is a different 8 KB row in the same (only) bank.
        let done = d.access(LineAddr::new(128), now, false);
        assert_eq!(done - now, Cycle::new(cfg.timings.row_conflict()));
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn busy_bank_queues_requests() {
        let cfg = DramConfig {
            channels: 1,
            banks_per_channel: 1,
            row_bytes: 8192,
            ..DramConfig::ddr4_2400()
        };
        let mut d = Dram::new(cfg);
        let t0 = Cycle::new(0);
        let first_done = d.access(LineAddr::new(0), t0, false);
        // Second request issued at t0 must wait for the bank.
        let second_done = d.access(LineAddr::new(1), t0, false);
        assert!(second_done > first_done);
        assert!(d.stats().queue_cycles > 0);
    }

    #[test]
    fn independent_banks_overlap() {
        let mut d = dram();
        let t0 = Cycle::new(0);
        // Lines 0 and 1 are on different channels under line interleaving.
        let a = d.access(LineAddr::new(0), t0, false);
        let b = d.access(LineAddr::new(1), t0, false);
        assert_eq!(a, b, "parallel banks serve concurrently");
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn read_write_counted() {
        let mut d = dram();
        d.access(LineAddr::new(0), Cycle::ZERO, false);
        d.access(LineAddr::new(7), Cycle::ZERO, true);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().bytes(), 128);
    }

    #[test]
    fn fixed_latency_config_always_hits_after_first() {
        let mut d = Dram::new(DramConfig::fixed_latency());
        let mut now = Cycle::ZERO;
        now = d.access(LineAddr::new(0), now, false);
        for i in 1..10u64 {
            let done = d.access(LineAddr::new(i * 1000), now, false);
            assert_eq!(
                done - now,
                Cycle::new(DramConfig::fixed_latency().timings.row_hit())
            );
            now = done;
        }
    }

    /// Restored DRAM must serve the exact same completion times as a model
    /// that never stopped — open rows, busy times, and stats all carry over.
    #[test]
    fn snapshot_restores_bank_state_exactly() {
        let mut live = dram();
        let mut now = Cycle::ZERO;
        let mut rng = cosmos_common::SplitMix64::new(0xD2A);
        for _ in 0..10_000 {
            let line = LineAddr::new(rng.next_index(1 << 16) as u64);
            now = now.max(live.access(line, now, rng.chance(0.3)));
        }
        let saved = live.save_state();
        let mut restored = dram();
        restored.load_state(&saved).unwrap();
        assert_eq!(restored.stats(), live.stats());
        let mut rng2 = rng;
        let mut now2 = now;
        for i in 0..10_000 {
            let a = live.access(LineAddr::new(rng.next_index(1 << 16) as u64), now, false);
            let b = restored.access(LineAddr::new(rng2.next_index(1 << 16) as u64), now2, false);
            assert_eq!(a, b, "completion time diverged at access {i}");
            now = a;
            now2 = b;
        }

        // Bank-count mismatch is rejected.
        let small = Dram::new(DramConfig {
            channels: 1,
            banks_per_channel: 1,
            row_bytes: 8192,
            ..DramConfig::ddr4_2400()
        });
        let mut small = small;
        assert!(small.load_state(&saved).unwrap_err().contains("length"));
    }

    #[test]
    fn map_covers_all_banks() {
        let d = dram();
        let mut seen = vec![false; d.config.total_banks()];
        for i in 0..100_000u64 {
            let (b, _) = d.map.map(LineAddr::new(i));
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s), "interleaving misses banks");
    }
}
