//! The benchmark's result line: named metrics with units, plus the
//! attempted/failed operation counts of the output check.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run prints as its last line.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Checked operations (one per design run, plus one per replay check in
    /// a traced run).
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Records the outcome of one checked operation; `problems` empty means
    /// it passed. Each problem is reported on stderr.
    pub fn check(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: check failed: {what}: {p}");
            }
        }
    }

    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Correct when every check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The single-line JSON result object.
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest representation that round-trips,
            // so every measured digit survives; non-finite values (already
            // flagged by `correct`) print as null to keep the line valid.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on Linux: two `struct timeval`s, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable, correctly sized `struct rusage`
    // for the duration of the call, and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut r = Report::default();
        r.check("ok", &[]);
        r.push("latency_ms", 1.25, "ms");
        r.push("setup_s", 0.5, "s");
        assert_eq!(
            r.to_json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check("bad", &["boom".into()]);
        assert!(!r.correct());
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("secure_path.ctr_read.ns_per_call"));
        assert!(valid_name("design.COSMOS-DP.ns_per_access"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
