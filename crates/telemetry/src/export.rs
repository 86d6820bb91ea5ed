//! Exporters: Chrome trace-event JSON, per-set CTR heatmap JSON, and a
//! plain-text metrics dump.
//!
//! Everything JSON-shaped is built as a [`cosmos_common::json::Value`] and
//! serialized through that module — no ad-hoc string formatting — so
//! escaping and number rendering are handled in exactly one place. The
//! Chrome trace, the largest export, is written one event object at a
//! time.

use std::collections::BTreeMap;
use std::io::{self, Write};

use cosmos_common::json::{json, Value};

use crate::heatmap::CtrHeatmap;
use crate::metrics::{bucket_floor, Metric};
use crate::phase::PhaseSpan;
use crate::recorder::{Event, TimedEvent};

/// Stats the recorder reports alongside its retained events.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecorderStats {
    /// Events pushed into the ring (post-sampling).
    pub recorded: u64,
    /// Events lost to ring wraparound.
    pub overwritten: u64,
    /// Candidate events seen before sampling.
    pub candidates: u64,
    /// The sampling rate (`1` = every event).
    pub sample_every: u64,
}

fn uints(values: &[u32]) -> Value {
    Value::Array(values.iter().map(|&v| Value::UInt(u64::from(v))).collect())
}

fn event_args(ev: &Event) -> Value {
    match *ev {
        Event::CtrAccess(info) => json!({
            "set": (info.set), "line": (info.line), "at": (info.at),
            "hit": (info.hit), "write": (info.write),
            "spec_kill": (info.spec_kill),
        }),
        Event::CtrEvict(info) => {
            let rl = match info.rl {
                Some(d) => json!({
                    "id": (d.id), "q_good": (d.q_good), "q_bad": (d.q_bad),
                    "reward": (d.reward),
                }),
                None => Value::Null,
            };
            json!({
                "set": (info.set), "victim_line": (info.victim_line),
                "dirty": (info.dirty), "fill_at": (info.fill_at),
                "last_touch_at": (info.last_touch_at), "at": (info.at),
                "lru_deviated": (info.lru_deviated), "rl": rl,
            })
        }
        Event::RlCtrAction {
            id,
            good,
            reward,
            q_good,
            q_bad,
        } => json!({
            "id": id, "good": good, "reward": reward,
            "q_good": q_good, "q_bad": q_bad,
        }),
        Event::RlDataAction { offchip, correct } => json!({
            "offchip": offchip, "correct": correct,
        }),
        Event::SpecIssue | Event::SpecKill => json!({}),
        Event::MerkleWalk { depth, fetched } => json!({
            "depth": depth as u64, "fetched": fetched as u64,
        }),
        Event::DramAccess {
            queued_cycles,
            row_hit,
            write,
        } => json!({
            "queued_cycles": queued_cycles, "row_hit": row_hit, "write": write,
        }),
    }
}

/// Writes a Chrome trace-event document (the JSON-array flavour that
/// `chrome://tracing` and Perfetto load directly) to `out`, one event
/// object at a time: the bytes equal the compact serialization of the
/// whole array, but no more than one event is ever built.
///
/// Layout: pid 0 is the whole run; each telemetry stream is a tid, named
/// via `M`-phase metadata. Runner phases become `X` (complete) spans on
/// their stream's track; sampled simulation events become `i` (instant)
/// marks. Every object carries the full `{name, ph, ts, pid, tid}` set.
pub fn write_chrome_trace<'a>(
    out: &mut impl Write,
    phases: &[PhaseSpan],
    events: impl IntoIterator<Item = &'a TimedEvent>,
    stream_labels: &[&str],
) -> io::Result<()> {
    let process = json!({
        "name": "process_name", "ph": "M", "ts": 0u64, "pid": 0u64, "tid": 0u64,
        "args": { "name": "cosmos-sim" },
    });
    let threads = stream_labels.iter().enumerate().map(|(tid, label)| {
        json!({
            "name": "thread_name", "ph": "M", "ts": 0u64, "pid": 0u64,
            "tid": tid as u64,
            "args": { "name": *label },
        })
    });
    let spans = phases.iter().map(|p| {
        json!({
            "name": p.name, "ph": "X", "cat": "phase",
            "ts": p.start_us, "dur": p.dur_us,
            "pid": 0u64, "tid": u64::from(p.stream),
        })
    });
    let marks = events.into_iter().map(|e| {
        json!({
            "name": e.event.name(), "ph": "i", "cat": "sim", "s": "t",
            "ts": e.ts_us, "pid": 0u64, "tid": u64::from(e.stream),
            "args": event_args(&e.event),
        })
    });
    let objects = std::iter::once(process)
        .chain(threads)
        .chain(spans)
        .chain(marks);
    for (i, object) in objects.enumerate() {
        write!(out, "{}{object}", if i == 0 { '[' } else { ',' })?;
    }
    out.write_all(b"]")
}

/// Builds the per-set CTR-cache heatmap document: one entry per stream
/// that ran a secure design, each with per-window access/miss/occupancy
/// vectors indexed by cache set.
pub fn heatmap_json<'a>(streams: impl IntoIterator<Item = (&'a str, &'a CtrHeatmap)>) -> Value {
    let entries: Vec<Value> = streams
        .into_iter()
        .map(|(label, m)| {
            let windows: Vec<Value> = m
                .windows()
                .map(|w| {
                    json!({
                        "end_access": w.end_access,
                        "accesses": uints(w.accesses),
                        "misses": uints(w.misses),
                        "occupancy": uints(w.occupancy),
                    })
                })
                .collect();
            json!({
                "stream": label,
                "sets": m.sets() as u64,
                "window_len": m.window_len(),
                "total_ctr_accesses": m.total_accesses(),
                "windows": Value::Array(windows),
            })
        })
        .collect();
    json!({ "kind": "ctr_heatmap", "streams": Value::Array(entries) })
}

/// Aggregates phase spans by name: `(name, calls, total_us)`, name-sorted.
pub fn aggregate_phases(phases: &[PhaseSpan]) -> Vec<(&'static str, u64, u64)> {
    let mut agg: Vec<(&'static str, u64, u64)> = Vec::new();
    for p in phases {
        match agg.iter_mut().find(|(n, _, _)| *n == p.name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += p.dur_us;
            }
            None => agg.push((p.name, 1, p.dur_us)),
        }
    }
    agg.sort_by(|a, b| a.0.cmp(b.0));
    agg
}

/// Renders the plain-text metrics dump: every metric in name order, phase
/// timing totals, and the flight recorder's drop accounting.
pub fn metrics_text(
    metrics: &BTreeMap<String, Metric>,
    phases: &[PhaseSpan],
    recorder: RecorderStats,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("# cosmos-telemetry metrics dump\n");
    for (name, metric) in metrics {
        match metric {
            Metric::Counter(v) => {
                let _ = writeln!(out, "counter {name} {v}");
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    out,
                    "histogram {name} count {} sum {} mean {:.3}",
                    h.count(),
                    h.sum(),
                    h.mean()
                );
                let buckets = h.buckets();
                for (i, n) in buckets.iter().enumerate() {
                    if *n > 0 {
                        let _ = write!(out, " ge{}:{n}", bucket_floor(i));
                    }
                }
                out.push('\n');
            }
        }
    }
    for (name, calls, total_us) in aggregate_phases(phases) {
        let _ = writeln!(out, "phase {name} calls {calls} total_us {total_us}");
    }
    let _ = writeln!(
        out,
        "recorder candidates {} sampled {} overwritten {} sample_every {}",
        recorder.candidates, recorder.recorded, recorder.overwritten, recorder.sample_every
    );
    out
}

/// Whether `v` is a structurally valid Chrome trace-event array: every
/// element an object with at least `name`, `ph`, `ts`, `pid`, `tid`.
/// Exposed for tests and smoke checks.
pub fn is_valid_chrome_trace(v: &Value) -> bool {
    let Some(items) = v.as_array() else {
        return false;
    };
    items.iter().all(|item| {
        let Some(obj) = item.as_object() else {
            return false;
        };
        obj.get("name").map(Value::as_str).is_some()
            && obj.get("ph").and_then(Value::as_str).is_some()
            && obj.get("ts").and_then(Value::as_u64).is_some()
            && obj.get("pid").and_then(Value::as_u64).is_some()
            && obj.get("tid").and_then(Value::as_u64).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace [`write_chrome_trace`] writes, as text.
    fn chrome_trace_text<'a>(
        phases: &[PhaseSpan],
        events: impl IntoIterator<Item = &'a TimedEvent>,
        stream_labels: &[&str],
    ) -> String {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, phases, events, stream_labels).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn parse(text: &str) -> Value {
        cosmos_common::json::parse(text).unwrap()
    }

    fn span(name: &'static str, stream: u16, start: u64, dur: u64) -> PhaseSpan {
        PhaseSpan {
            name,
            stream,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn chrome_trace_objects_have_required_keys() {
        let phases = vec![span("trace_gen", 0, 0, 50), span("sim", 1, 60, 1000)];
        let events = vec![
            TimedEvent {
                seq: 0,
                ts_us: 70,
                stream: 1,
                event: Event::CtrAccess(crate::recorder::AccessInfo {
                    set: 3,
                    line: 42,
                    at: 9,
                    hit: false,
                    write: true,
                    spec_kill: false,
                    tenant: 0,
                }),
            },
            TimedEvent {
                seq: 1,
                ts_us: 80,
                stream: 1,
                event: Event::RlCtrAction {
                    id: 17,
                    good: true,
                    reward: 1.5,
                    q_good: 0.5,
                    q_bad: -0.25,
                },
            },
            TimedEvent {
                seq: 2,
                ts_us: 90,
                stream: 1,
                event: Event::CtrEvict(crate::recorder::EvictInfo {
                    set: 3,
                    victim_line: 40,
                    dirty: true,
                    fill_at: 2,
                    last_touch_at: 5,
                    at: 9,
                    lru_deviated: true,
                    rl: Some(crate::recorder::RlDecisionInfo {
                        id: 17,
                        q_good: 0.5,
                        q_bad: -0.25,
                        reward: 1.5,
                    }),
                }),
            },
        ];
        let text = chrome_trace_text(&phases, &events, &["main", "fig02/np/graph500"]);
        let doc = parse(&text);
        assert!(is_valid_chrome_trace(&doc));
        // 1 process_name + 2 thread_name + 2 phases + 3 events.
        assert_eq!(doc.as_array().unwrap().len(), 8);
        // The streamed bytes are the compact serialization of the array.
        assert_eq!(text, doc.to_string());
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"dur\":1000"));
        // The richer payloads survive into args.
        assert!(text.contains("\"victim_line\":40"));
        assert!(text.contains("\"lru_deviated\":true"));
        assert!(text.contains("\"spec_kill\":false"));
        assert!(text.contains("\"id\":17"));
    }

    #[test]
    fn chrome_trace_escapes_hostile_labels() {
        // Stream labels come from job labels; exporters must not let a
        // quote, backslash, or newline corrupt the JSON document.
        let text = chrome_trace_text(&[], &[], &["evil \"label\"\\with\nnewline\ttab"]);
        assert!(is_valid_chrome_trace(&parse(&text)));
        assert!(text.contains(r#"evil \"label\"\\with\nnewline\ttab"#));
        // The raw control characters must not appear unescaped.
        assert!(!text.contains('\n'));
        assert!(!text.contains('\t'));
        // Still one balanced array of objects.
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let text = chrome_trace_text(&[], &[], &[]);
        assert!(is_valid_chrome_trace(&parse(&text)));
        assert_eq!(
            text,
            r#"[{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"cosmos-sim"}}]"#
        );
    }

    #[test]
    fn heatmap_json_shape() {
        let mut m = CtrHeatmap::new(2, 2, 8);
        m.record(0, false, true);
        m.record(1, true, false);
        m.finish();
        let doc = heatmap_json([("cosmos/bfs", &m)]);
        assert_eq!(doc.get("kind").and_then(Value::as_str), Some("ctr_heatmap"));
        let streams = doc.get("streams").and_then(Value::as_array).unwrap();
        assert_eq!(streams.len(), 1);
        let s = &streams[0];
        assert_eq!(s.get("sets").and_then(Value::as_u64), Some(2));
        let windows = s.get("windows").and_then(Value::as_array).unwrap();
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(
            w.get("accesses").and_then(Value::as_array).unwrap().len(),
            2
        );
        assert_eq!(w.get("misses").unwrap().to_string(), "[1,0]");
        assert_eq!(w.get("occupancy").unwrap().to_string(), "[1,0]");
    }

    #[test]
    fn metrics_text_sections() {
        let mut delay = crate::metrics::Histogram::default();
        delay.record(2);
        delay.record(4);
        let metrics = BTreeMap::from([
            ("cache.ctr.hits".to_string(), Metric::Counter(10)),
            (
                "dram.queue_delay_cycles".to_string(),
                Metric::Histogram(Box::new(delay)),
            ),
        ]);
        let phases = vec![span("sim", 0, 0, 100), span("sim", 1, 0, 50)];
        let text = metrics_text(
            &metrics,
            &phases,
            RecorderStats {
                recorded: 5,
                overwritten: 1,
                candidates: 320,
                sample_every: 64,
            },
        );
        assert!(text.contains("counter cache.ctr.hits 10"));
        assert!(text.contains("histogram dram.queue_delay_cycles count 2 sum 6 mean 3.000"));
        assert!(text.contains("ge2:1"));
        assert!(text.contains("ge4:1"));
        assert!(text.contains("phase sim calls 2 total_us 150"));
        assert!(text.contains("recorder candidates 320 sampled 5 overwritten 1 sample_every 64"));
    }
}
