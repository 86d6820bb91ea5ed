//! The newline-delimited JSON protocol the serve daemon speaks, and the
//! job specifications it carries.
//!
//! One request per line; one JSON response per request, written to the
//! same channel the request arrived on (stdout for stdin requests, the
//! connection for Unix-socket requests). Lifecycle events (`start`,
//! `done`, `preempted`, `failed`) stream to stdout regardless of where
//! the job was submitted.
//!
//! ```text
//! {"op":"submit","job":{"type":"figure","figure":"fig02","accesses":6000,"seed":42}}
//! {"op":"submit","job":{"type":"sim","design":"COSMOS","workload":"bfs","accesses":50000}}
//! {"op":"status"}
//! {"op":"wait"}
//! {"op":"shutdown"}
//! ```

use cosmos_common::json::{codec, json, Value};
use cosmos_core::Design;
use cosmos_experiments::figures;
use cosmos_workloads::{TraceSpec, Workload};

/// What one job runs.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// A registered figure pipeline (same code `cosmos_figure` runs).
    Figure {
        /// Registry name (`fig02`, `fig10`, …).
        figure: &'static str,
        /// Access budget per trace.
        accesses: usize,
        /// Trace/predictor seed.
        seed: u64,
    },
    /// One checkpointed simulation of a single design × workload.
    Sim {
        /// Design under simulation.
        design: Design,
        /// Workload by name (irregular or ML suite).
        workload: Workload,
        /// Trace length.
        accesses: usize,
        /// Trace/predictor seed.
        seed: u64,
        /// Periodic checkpoint interval in accesses (0 = only on
        /// preemption).
        snapshot_every: usize,
    },
}

/// Default seed when a submission omits one (matches the binaries).
const DEFAULT_SEED: u64 = 42;

fn opt_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(_) => codec::u64_field(v, key),
    }
}

/// A submitted access budget, which must be positive and one the
/// generators can serve at the paper's core count, as `cosmos_figure
/// --accesses` requires: a smaller budget would run empty traces and
/// report NaN rates, a larger one would fail to allocate its trace.
fn budget(accesses: usize) -> Result<usize, String> {
    if accesses == 0 {
        return Err("accesses must be positive".into());
    }
    TraceSpec::paper_default(accesses, DEFAULT_SEED).check_budget()?;
    Ok(accesses)
}

impl JobSpec {
    /// Parses and validates a job object at submission time — unknown
    /// figures, designs, and workloads are rejected here, before the job
    /// ever reaches the queue.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        codec::obj(v, "job")?;
        match codec::str_field(v, "type")? {
            "figure" => {
                let name = codec::str_field(v, "figure")?;
                let fig = figures::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown figure {name:?} (known: {})",
                        figures::known_names()
                    )
                })?;
                // The tables take no budget (their default is 0), so a 0
                // there is no error, and their manifest rows round-trip.
                let accesses = match opt_u64(v, "accesses", fig.default_accesses as u64)? {
                    0 if fig.default_accesses == 0 => 0,
                    n => budget(n as usize)?,
                };
                Ok(JobSpec::Figure {
                    figure: fig.name,
                    accesses,
                    seed: opt_u64(v, "seed", DEFAULT_SEED)?,
                })
            }
            "sim" => Ok(JobSpec::Sim {
                design: codec::str_field(v, "design")?.parse()?,
                workload: codec::str_field(v, "workload")?.parse()?,
                accesses: budget(codec::usize_field(v, "accesses")?)?,
                seed: opt_u64(v, "seed", DEFAULT_SEED)?,
                snapshot_every: opt_u64(v, "snapshot_every", 0)? as usize,
            }),
            other => Err(format!("unknown job type {other:?} (known: figure, sim)")),
        }
    }

    /// The job as a JSON object (manifest persistence and events).
    pub fn to_json(&self) -> Value {
        match self {
            JobSpec::Figure {
                figure,
                accesses,
                seed,
            } => json!({
                "type": "figure",
                "figure": *figure,
                "accesses": *accesses,
                "seed": *seed,
            }),
            JobSpec::Sim {
                design,
                workload,
                accesses,
                seed,
                snapshot_every,
            } => json!({
                "type": "sim",
                "design": design.name(),
                "workload": workload.name(),
                "accesses": *accesses,
                "seed": *seed,
                "snapshot_every": *snapshot_every,
            }),
        }
    }

    /// Short human-readable label (events and logs).
    pub fn label(&self) -> String {
        match self {
            JobSpec::Figure { figure, .. } => (*figure).to_string(),
            JobSpec::Sim {
                design, workload, ..
            } => format!("{}/{design}", workload.name()),
        }
    }
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Enqueue a job; replies with its id.
    Submit(JobSpec),
    /// Report every job's lifecycle state.
    Status,
    /// Block until no job is queued or running, then reply.
    Wait,
    /// Graceful stop: drain-free shutdown that checkpoints in-flight sim
    /// jobs and persists everything else as queued.
    Shutdown,
}

/// Parses one NDJSON request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = cosmos_common::json::parse(line).map_err(|e| format!("bad request JSON: {e}"))?;
    codec::obj(&v, "request")?;
    match codec::str_field(&v, "op")? {
        "submit" => Ok(Request::Submit(JobSpec::from_json(codec::field(
            &v, "job",
        )?)?)),
        "status" => Ok(Request::Status),
        "wait" => Ok(Request::Wait),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (known: submit, status, wait, shutdown)"
        )),
    }
}

/// An error reply.
pub fn error_reply(err: &str) -> Value {
    json!({ "ok": false, "error": err })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(parse_request(r#"{"op":"wait"}"#).unwrap(), Request::Wait);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn parses_figure_submit_with_defaults() {
        // Every registered figure is submittable by name, with its
        // registry default budget.
        for fig in figures::FIGURES {
            let r = parse_request(&format!(
                r#"{{"op":"submit","job":{{"type":"figure","figure":"{}"}}}}"#,
                fig.name
            ))
            .unwrap();
            let Request::Submit(JobSpec::Figure {
                figure,
                accesses,
                seed,
            }) = r
            else {
                panic!("wrong parse: {r:?}");
            };
            assert_eq!(figure, fig.name);
            assert_eq!(accesses, fig.default_accesses);
            assert_eq!(seed, 42);
        }
    }

    #[test]
    fn parses_sim_submit() {
        let r = parse_request(
            r#"{"op":"submit","job":{"type":"sim","design":"COSMOS","workload":"bfs","accesses":5000,"seed":7,"snapshot_every":1000}}"#,
        )
        .unwrap();
        let Request::Submit(spec) = r else { panic!() };
        assert_eq!(spec.label(), "BFS/COSMOS");
        // Round-trips through the manifest encoding.
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        // The Figure-8 MLP is outside every suite but still a workload.
        let r = parse_request(
            r#"{"op":"submit","job":{"type":"sim","design":"np","workload":"mlp","accesses":10}}"#,
        )
        .unwrap();
        let Request::Submit(spec) = r else { panic!() };
        assert_eq!(spec.label(), "MLP/NP");
    }

    #[test]
    fn figure_spec_round_trips() {
        let spec = JobSpec::Figure {
            figure: "fig10",
            accesses: 1234,
            seed: 9,
        };
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
        // A table takes no budget; its default 0 survives a resume.
        let spec = JobSpec::Figure {
            figure: "table1",
            accesses: 0,
            seed: 9,
        };
        assert_eq!(JobSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn rejects_unknowns_with_clear_errors() {
        let err = parse_request(r#"{"op":"dance"}"#).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let err = parse_request(r#"{"op":"submit","job":{"type":"mystery"}}"#).unwrap_err();
        assert!(err.contains("unknown job type"), "{err}");
        let err = parse_request(r#"{"op":"submit","job":{"type":"figure","figure":"fig99"}}"#)
            .unwrap_err();
        assert!(err.contains("unknown figure"), "{err}");
        let err = parse_request(
            r#"{"op":"submit","job":{"type":"sim","design":"X","workload":"bfs","accesses":10}}"#,
        )
        .unwrap_err();
        assert!(err.contains("unknown design"), "{err}");
        // A zero budget, as `cosmos_figure --accesses 0` is, and budgets
        // the generators cannot serve at the paper's 4 cores.
        for (accesses, message) in [
            (0, "accesses must be positive"),
            (3, "below the core count 4"),
            (u64::MAX, "exceeds 576460752303423487"),
        ] {
            for job in [
                format!(r#"{{"type":"figure","figure":"fig02","accesses":{accesses}}}"#),
                format!(
                    r#"{{"type":"sim","design":"COSMOS","workload":"bfs","accesses":{accesses}}}"#
                ),
            ] {
                let err = parse_request(&format!(r#"{{"op":"submit","job":{job}}}"#)).unwrap_err();
                assert!(err.contains(message), "{job}: {err}");
            }
        }
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("bad request JSON"));
    }
}
