//! The versioned snapshot envelope around a simulator's saved state.
//!
//! A snapshot is refusable before it is trusted: the envelope carries a
//! format version and a fingerprint of the configuration that produced
//! it, and [`SimSnapshot::restore_into`] rejects a snapshot whose
//! fingerprint does not match the target simulator's configuration —
//! restoring COSMOS state into a MorphCtr simulator (or into COSMOS with
//! different RL hyperparameters) silently diverges, so it must fail
//! loudly instead. Writes go through a temp-file-plus-rename so a crash
//! mid-checkpoint can never leave a truncated snapshot where a good one
//! used to be.

use cosmos_common::hash::fnv1a;
use cosmos_common::json::{codec, json, Value};
use cosmos_core::{SimConfig, Simulator};
use std::io;
use std::path::Path;

/// Current snapshot format version. Bump on any change to the saved-state
/// layout; old snapshots are rejected with a clear error, never
/// reinterpreted.
///
/// Version 2 saves each data-cache level as MRU-ordered line words plus
/// its demand hit/miss counts. Version 3 saves the MT cache, and a CTR
/// cache on the recency store, the same way: MRU-ordered words (with the
/// LCR hint in their high bits) plus the cache statistics.
pub const SNAPSHOT_VERSION: u64 = 3;

/// Fingerprints the result-relevant configuration: the plain-data fields
/// via [`SimConfig::to_json`] plus the typed sub-configurations that
/// `to_json` reports elsewhere (policy, prefetcher, counter scheme, DRAM
/// geometry, RL hyperparameters, rewards) via their `Debug` forms. The
/// telemetry handle is deliberately excluded — observability never
/// changes results, so it must not invalidate a snapshot.
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    let mut text = config.to_json().to_string();
    text.push_str(&format!(
        "|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        config.ctr_policy,
        config.ctr_prefetcher,
        config.scheme,
        config.dram,
        config.data_rl,
        config.ctr_rl,
        config.rewards,
    ));
    fnv1a(text.as_bytes())
}

/// A versioned, fingerprinted snapshot of one simulator mid-run.
#[derive(Clone, Debug)]
pub struct SimSnapshot {
    /// Format version ([`SNAPSHOT_VERSION`] at capture time).
    pub version: u64,
    /// [`config_fingerprint`] of the producing configuration.
    pub config_fingerprint: u64,
    /// Accesses simulated before the snapshot was taken; the resume point
    /// in the trace.
    pub accesses_done: u64,
    /// The full saved state ([`Simulator::save_state`]).
    pub state: Value,
}

impl SimSnapshot {
    /// Captures the simulator's state after `accesses_done` accesses.
    pub fn capture(sim: &Simulator, accesses_done: u64) -> Result<Self, String> {
        Ok(Self {
            version: SNAPSHOT_VERSION,
            config_fingerprint: config_fingerprint(sim.config()),
            accesses_done,
            state: sim.save_state()?,
        })
    }

    /// The envelope as a JSON document.
    pub fn to_json(&self) -> Value {
        json!({
            "format": "cosmos-snapshot",
            "version": self.version,
            "config_fingerprint": self.config_fingerprint,
            "accesses_done": self.accesses_done,
            "state": self.state.clone(),
        })
    }

    /// Parses an envelope, rejecting unknown formats and versions before
    /// looking at the state.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        codec::obj(v, "snapshot")?;
        let format = codec::str_field(v, "format")?;
        if format != "cosmos-snapshot" {
            return Err(format!(
                "not a cosmos snapshot (format {format:?}, expected \"cosmos-snapshot\")"
            ));
        }
        let version = codec::u64_field(v, "version")?;
        if version != SNAPSHOT_VERSION {
            return Err(format!(
                "snapshot version {version} is not supported (this build reads version \
                 {SNAPSHOT_VERSION}); re-create the checkpoint with the current binaries"
            ));
        }
        Ok(Self {
            version,
            config_fingerprint: codec::u64_field(v, "config_fingerprint")?,
            accesses_done: codec::u64_field(v, "accesses_done")?,
            state: codec::field(v, "state")?.clone(),
        })
    }

    /// Restores the saved state into `sim`, first checking that `sim` was
    /// built from the same configuration that produced the snapshot.
    pub fn restore_into(&self, sim: &mut Simulator) -> Result<(), String> {
        let expect = config_fingerprint(sim.config());
        if self.config_fingerprint != expect {
            return Err(format!(
                "snapshot was produced by a different configuration (fingerprint \
                 {:#018x}, this simulator has {expect:#018x}); resuming it would \
                 silently diverge",
                self.config_fingerprint
            ));
        }
        sim.load_state(&self.state)
    }

    /// Builds a fresh simulator from `config` and restores into it.
    pub fn restore(&self, config: &SimConfig) -> Result<Simulator, String> {
        let mut sim = Simulator::new(config.clone());
        self.restore_into(&mut sim)?;
        Ok(sim)
    }

    /// Writes the snapshot to `path` atomically: serialize to
    /// `path.tmp`, fsync, rename over `path`. A crash at any point
    /// leaves either the old snapshot or the new one, never a torn file.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let mut doc = self.to_json().pretty();
        doc.push('\n');
        write_atomic(path, doc.as_bytes())
    }

    /// Reads and parses a snapshot file.
    pub fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
        let v = cosmos_common::json::parse(&text)
            .map_err(|e| format!("parse snapshot {}: {e}", path.display()))?;
        Self::from_json(&v)
    }
}

/// Atomic file replacement: write to `<path>.tmp`, sync, rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::json::Map;
    use cosmos_core::Design;
    use cosmos_workloads::{TraceSpec, Workload};
    use proptest::prelude::*;

    fn small_sim(design: Design, accesses: usize) -> (SimConfig, Simulator, Vec<u64>) {
        let config = SimConfig::paper_default(design);
        let trace = Workload::Graph(cosmos_workloads::graph::GraphKernel::Bfs)
            .generate(&TraceSpec::small_test(7).with_accesses(accesses));
        let mut sim = Simulator::new(config.clone());
        for a in trace.iter() {
            sim.step(a);
        }
        let done = trace.len() as u64;
        (config, sim, vec![done])
    }

    #[test]
    fn fingerprint_tracks_result_relevant_fields() {
        let base = SimConfig::paper_default(Design::Cosmos);
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&base.clone()));

        let mut other = base.clone();
        other.seed ^= 1;
        assert_ne!(fp, config_fingerprint(&other));

        let mut other = base.clone();
        other.ctr_rl.alpha += 0.01;
        assert_ne!(fp, config_fingerprint(&other));

        let mut other = base.clone();
        other.dram.timings.t_cas += 1;
        assert_ne!(fp, config_fingerprint(&other));

        // Telemetry is observability, not configuration.
        let mut other = base.clone();
        other.telemetry = cosmos_telemetry::Telemetry::in_memory();
        assert_eq!(fp, config_fingerprint(&other));
    }

    #[test]
    fn envelope_round_trips() {
        let (config, sim, done) = small_sim(Design::MorphCtr, 3000);
        let snap = SimSnapshot::capture(&sim, done[0]).unwrap();
        let text = snap.to_json().pretty();
        let back = SimSnapshot::from_json(&cosmos_common::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.version, SNAPSHOT_VERSION);
        assert_eq!(back.config_fingerprint, config_fingerprint(&config));
        assert_eq!(back.accesses_done, done[0]);
        let restored = back.restore(&config).unwrap();
        assert_eq!(
            restored.save_state().unwrap().to_string(),
            sim.save_state().unwrap().to_string()
        );
    }

    #[test]
    fn version_mismatch_is_rejected_with_clear_error() {
        let (_, sim, _) = small_sim(Design::MorphCtr, 1000);
        let mut snap = SimSnapshot::capture(&sim, 1000).unwrap();
        // Version 1 is the layout before the exact-LRU hierarchy, version
        // 2 the one before the CTR and MT caches saved MRU-ordered words.
        for version in [1, 2, SNAPSHOT_VERSION + 1] {
            snap.version = version;
            let err = SimSnapshot::from_json(&snap.to_json()).unwrap_err();
            assert!(
                err.contains(&format!("version {version} is not supported")),
                "{err}"
            );
            assert!(err.contains("re-create the checkpoint"), "{err}");
        }
    }

    #[test]
    fn foreign_format_is_rejected() {
        let err = SimSnapshot::from_json(&json!({"format": "not-a-snapshot"})).unwrap_err();
        assert!(err.contains("not a cosmos snapshot"), "{err}");
    }

    #[test]
    fn config_mismatch_is_rejected_on_restore() {
        let (_, sim, done) = small_sim(Design::Cosmos, 2000);
        let snap = SimSnapshot::capture(&sim, done[0]).unwrap();
        let other = SimConfig::paper_default(Design::CosmosDp);
        let err = snap.restore(&other).err().expect("restore must fail");
        assert!(err.contains("different configuration"), "{err}");
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = std::env::temp_dir().join("cosmos_snapshot_test_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.snap.json");
        let (config, sim, done) = small_sim(Design::MorphCtr, 1500);
        let snap = SimSnapshot::capture(&sim, done[0]).unwrap();
        snap.write_atomic(&path).unwrap();
        // Overwrite with a later snapshot; the file must stay parseable.
        let snap2 = SimSnapshot::capture(&sim, done[0] + 1).unwrap();
        snap2.write_atomic(&path).unwrap();
        let back = SimSnapshot::read(&path).unwrap();
        assert_eq!(back.accesses_done, done[0] + 1);
        let restored = back.restore(&config).unwrap();
        assert_eq!(
            restored.save_state().unwrap().to_string(),
            sim.save_state().unwrap().to_string()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Injected-corruption sweep: dropping or retyping any envelope field
    /// must fail parsing with an error naming the field, and corrupting
    /// the state payload must fail the restore, never mis-restore.
    #[test]
    fn corrupted_envelopes_are_rejected() {
        let (config, sim, done) = small_sim(Design::MorphCtr, 1200);
        let snap = SimSnapshot::capture(&sim, done[0]).unwrap();
        let good = snap.to_json();
        for field in [
            "format",
            "version",
            "config_fingerprint",
            "accesses_done",
            "state",
        ] {
            let Value::Object(o) = &good else {
                unreachable!()
            };
            let mut broken = Map::new();
            for (k, v) in o.iter() {
                if k != field {
                    broken.insert(k, v.clone());
                }
            }
            let err = SimSnapshot::from_json(&Value::Object(broken)).unwrap_err();
            assert!(err.contains(field), "dropping {field}: {err}");
        }
        // Retype a state sub-document: parse succeeds (the envelope is
        // intact) but restore must fail with a real error.
        let mut tampered = snap.clone();
        tampered.state = json!({"hierarchy": "nonsense"});
        assert!(tampered.restore(&config).err().is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property: for random small traces and designs, capture →
        /// serialize → parse → restore reproduces the exact saved state.
        #[test]
        fn prop_snapshot_round_trip(seed in 0u64..64, len in 400usize..1400, secure in any::<bool>()) {
            let design = if secure { Design::Cosmos } else { Design::Np };
            let config = SimConfig::paper_default(design);
            let trace = Workload::Graph(cosmos_workloads::graph::GraphKernel::Pr)
                .generate(&TraceSpec::small_test(seed).with_accesses(len));
            let mut sim = Simulator::new(config.clone());
            for a in trace.iter() {
                sim.step(a);
            }
            let snap = SimSnapshot::capture(&sim, trace.len() as u64).unwrap();
            let text = snap.to_json().to_string();
            let back = SimSnapshot::from_json(&cosmos_common::json::parse(&text).unwrap()).unwrap();
            let restored = back.restore(&config).unwrap();
            prop_assert_eq!(
                restored.save_state().unwrap().to_string(),
                sim.save_state().unwrap().to_string()
            );
        }
    }
}
