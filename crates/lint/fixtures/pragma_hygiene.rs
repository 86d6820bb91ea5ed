//! L1/L2 fixture: the pragma mechanism is itself linted.
//! Virtual path: crates/demo/src/lib.rs.
//!
//! `//~v` markers expect findings on the *next* line (used where the line
//! under test is itself a pragma comment and cannot carry a marker).

//~v L1
// cosmos-lint: allow(P3)
pub fn bare(o: Option<u64>) -> u64 { o.expect("bad") } //~ P3

//~v L1
// cosmos-lint: allow(P3): short
pub fn short_justification(o: Option<u64>) -> u64 {
    o.expect("bad") //~ P3
}

//~v L1
// cosmos-lint: alow(P3): typo in the keyword itself
pub fn typod() {}

// cosmos-lint: allow(P3): nothing on the next line calls expect at all
pub fn stale_allow() {} //~ L2

// cosmos-lint: allow(Z9): unknown rule id with a fine justification
pub fn unknown_rule() {} //~ L1 L2

//~v L1
// cosmos-lint: hot
pub struct NotAFunction;
