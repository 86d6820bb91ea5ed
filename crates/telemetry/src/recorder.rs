//! The flight recorder: per-stream bounded ring buffers of typed
//! simulation events.
//!
//! Components hand events to their job's [`crate::Probe`], which applies
//! the dense sampling rate and stamps whatever survives with a
//! deterministic per-stream sequence number; the recorder itself just
//! stores the newest `capacity` events, counting what it had to overwrite
//! so exporters can report drop rates honestly.

use crate::export::RecorderStats;

/// The RL decision active when a CTR-cache line was chosen for eviction:
/// the CTR-locality agent's classification of the line being *filled*,
/// which steered the LCR victim choice. Carried by [`Event::CtrEvict`] so
/// the explain pass can tie a policy-induced miss back to the Q-values
/// and reward of the decision that caused it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RlDecisionInfo {
    /// Decision id: the agent's prediction index (0-based, per predictor).
    pub id: u64,
    /// Q-value of the "good locality" action at decision time.
    pub q_good: f32,
    /// Q-value of the "bad locality" action at decision time.
    pub q_bad: f32,
    /// The reward assigned to the decision.
    pub reward: f32,
}

/// Payload of one demand CTR-cache access ([`Event::CtrAccess`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccessInfo {
    /// Cache set index.
    pub set: u32,
    /// The counter line's index (tag), for linking misses to evictions.
    pub line: u64,
    /// The CTR cache's access clock after this access — a deterministic
    /// logical time shared with eviction stamps.
    pub at: u64,
    /// Whether it hit.
    pub hit: bool,
    /// Whether it was a write (counter bump) access.
    pub write: bool,
    /// Whether this access belongs to a killed speculative read (the
    /// wrong-off-chip resolution path).
    pub spec_kill: bool,
    /// Tenant the access is attributed to (0 for single-tenant runs),
    /// already folded into the simulator's tenant-bucket range. Routes
    /// the access to its per-tenant occupancy heatmap when those are
    /// enabled (see `Probe::ctr_tenant_heatmaps_init`).
    pub tenant: u8,
}

/// Payload of one CTR-cache eviction ([`Event::CtrEvict`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvictInfo {
    /// Cache set index the victim left.
    pub set: u32,
    /// The victim counter line's index (tag).
    pub victim_line: u64,
    /// Whether the victim was dirty (forced a writeback).
    pub dirty: bool,
    /// Access-clock value when the victim was filled.
    pub fill_at: u64,
    /// Access-clock value when the victim was last touched.
    pub last_touch_at: u64,
    /// Access-clock value of the access that evicted it.
    pub at: u64,
    /// Whether the victim differs from the one strict LRU would have
    /// chosen — the signature of a policy-steered (LCR) decision.
    pub lru_deviated: bool,
    /// The RL decision active at this eviction, when one steered it.
    pub rl: Option<RlDecisionInfo>,
}

/// A typed simulation event, as emitted by the instrumented components.
///
/// Variants are small and `Copy`: recording must not allocate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A demand access to the CTR cache (counter metadata).
    CtrAccess(AccessInfo),
    /// A CTR-cache eviction.
    CtrEvict(EvictInfo),
    /// One decision by the CTR-locality RL agent.
    RlCtrAction {
        /// Decision id: the agent's prediction index (0-based).
        id: u64,
        /// Whether the agent chose the "good locality" action.
        good: bool,
        /// The reward assigned to the decision.
        reward: f32,
        /// Q-value of the "good locality" action at decision time.
        q_good: f32,
        /// Q-value of the "bad locality" action at decision time.
        q_bad: f32,
    },
    /// One resolved prediction by the data-location RL agent.
    RlDataAction {
        /// Whether the prediction was "off-chip".
        offchip: bool,
        /// Whether the prediction matched the actual location.
        correct: bool,
    },
    /// A speculative early DRAM read issued on an off-chip prediction.
    SpecIssue,
    /// A speculative read killed because the data was on-chip after all.
    SpecKill,
    /// One Merkle-tree authentication walk.
    MerkleWalk {
        /// Levels visited before hitting a cached ancestor (or the root).
        depth: u8,
        /// Levels that had to be fetched from DRAM.
        fetched: u8,
    },
    /// One DRAM access leaving the bank queue.
    DramAccess {
        /// Cycles the request waited behind earlier requests to its bank.
        queued_cycles: u32,
        /// Whether it hit the open row buffer.
        row_hit: bool,
        /// Whether it was a write.
        write: bool,
    },
}

impl Event {
    /// A short static name, used for trace-event labels and aggregation.
    pub fn name(&self) -> &'static str {
        match self {
            Event::CtrAccess { .. } => "ctr_access",
            Event::CtrEvict { .. } => "ctr_evict",
            Event::RlCtrAction { .. } => "rl_ctr_action",
            Event::RlDataAction { .. } => "rl_data_action",
            Event::SpecIssue => "spec_issue",
            Event::SpecKill => "spec_kill",
            Event::MerkleWalk { .. } => "merkle_walk",
            Event::DramAccess { .. } => "dram_access",
        }
    }
}

/// An [`Event`] stamped with when and where it happened.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedEvent {
    /// Deterministic per-stream candidate index (counts every candidate
    /// event offered to the stream, sampled in or not). Unlike `ts_us`
    /// this is identical run-to-run and across `--jobs`, so analysis
    /// passes order by it; the wall clock exists only for Chrome traces.
    pub seq: u64,
    /// Microseconds of wall clock since the telemetry epoch.
    pub ts_us: u64,
    /// The stream (grid-job scope) that emitted it.
    pub stream: u16,
    /// The event itself.
    pub event: Event,
}

/// A bounded ring buffer that keeps the newest `capacity` events.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<TimedEvent>,
    capacity: usize,
    /// Next slot to overwrite once the buffer is full.
    head: usize,
    recorded: u64,
    overwritten: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (`capacity > 0`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
            overwritten: 0,
        }
    }

    /// Stores `ev`, evicting the oldest retained event when full.
    pub fn push(&mut self, ev: TimedEvent) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Total events ever pushed (retained + overwritten).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Retained events, oldest first.
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// One telemetry stream's flight recorder: a [`FlightRecorder`] ring plus
/// the deterministic candidate counters that drive two-stratum sampling.
///
/// Dense events (accesses, DRAM, walks, RL actions) thin at the
/// configured `sample_every`; rare events (evictions, speculation) are
/// all kept, so they survive aggressive dense sampling. Both strata share
/// one per-stream candidate sequence, so the `seq` stamps of recorded
/// events totally order them causally — with no dependence on wall clock
/// or on which worker thread ran the stream.
#[derive(Debug)]
pub struct StreamRecorder {
    ring: FlightRecorder,
    seq: u64,
    dense_seen: u64,
}

impl StreamRecorder {
    /// A stream recorder whose ring keeps at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: FlightRecorder::new(capacity),
            seq: 0,
            dense_seen: 0,
        }
    }

    /// Counts one candidate event in the given stratum and decides whether
    /// it samples in: every rare one does, and every `dense_every`th dense
    /// one, starting with the first. Returns the candidate's `seq` stamp
    /// when it does.
    pub fn admit(&mut self, rare: bool, dense_every: u64) -> Option<u64> {
        let seq = self.seq;
        self.seq += 1;
        if !rare {
            let nth = self.dense_seen;
            self.dense_seen += 1;
            if !nth.is_multiple_of(dense_every.max(1)) {
                return None;
            }
        }
        Some(seq)
    }

    /// Stores an admitted event in the ring.
    pub fn push(&mut self, ev: TimedEvent) {
        self.ring.push(ev);
    }

    /// Total candidate events offered to this stream (all strata).
    pub fn candidates(&self) -> u64 {
        self.seq
    }

    /// Events pushed into the ring (post-sampling).
    pub fn recorded(&self) -> u64 {
        self.ring.recorded()
    }

    /// Events lost to ring wraparound.
    pub fn overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Retained events, oldest first (ascending `seq`).
    pub fn iter_oldest_first(&self) -> impl Iterator<Item = &TimedEvent> {
        self.ring.iter_oldest_first()
    }

    /// Adds this stream's candidate, sampled and overwritten counts to
    /// `stats`.
    pub fn add_stats(&self, stats: &mut RecorderStats) {
        stats.candidates += self.candidates();
        stats.recorded += self.recorded();
        stats.overwritten += self.overwritten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TimedEvent {
        TimedEvent {
            seq: ts,
            ts_us: ts,
            stream: 0,
            event: Event::SpecIssue,
        }
    }

    #[test]
    fn below_capacity_keeps_everything_in_order() {
        let mut r = FlightRecorder::new(4);
        for t in 0..3 {
            r.push(ev(t));
        }
        assert_eq!(r.recorded(), 3);
        assert_eq!(r.overwritten(), 0);
        let ts: Vec<u64> = r.iter_oldest_first().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![0, 1, 2]);
    }

    #[test]
    fn wraparound_drops_oldest_and_accounts_for_it() {
        let mut r = FlightRecorder::new(4);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.overwritten(), 6);
        // The newest 4 events survive, oldest-first iteration order.
        let ts: Vec<u64> = r.iter_oldest_first().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn wraparound_is_stable_across_many_laps() {
        let mut r = FlightRecorder::new(3);
        for t in 0..3000 {
            r.push(ev(t));
        }
        assert_eq!(r.recorded(), 3000);
        assert_eq!(r.overwritten(), 2997);
        let ts: Vec<u64> = r.iter_oldest_first().map(|e| e.ts_us).collect();
        assert_eq!(ts, vec![2997, 2998, 2999]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        FlightRecorder::new(0);
    }

    #[test]
    fn strata_sample_independently_but_share_one_seq() {
        let mut r = StreamRecorder::new(64);
        let mut admitted = Vec::new();
        // Alternate dense (1-in-4) and rare (always kept) candidates.
        for i in 0..8u64 {
            let rare = i % 2 == 1;
            if let Some(seq) = r.admit(rare, 4) {
                admitted.push((seq, rare));
            }
        }
        // Dense candidates sit at seqs 0,2,4,6 → only the 1st and 5th
        // (seq 0 and 8... none here past 6) sample in; every rare
        // candidate (seqs 1,3,5,7) samples in.
        assert_eq!(
            admitted,
            vec![(0, false), (1, true), (3, true), (5, true), (7, true)]
        );
        assert_eq!(r.candidates(), 8);
    }
}
