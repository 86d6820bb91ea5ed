//! X1 fixture: every comment that starts with the retired pragma marker
//! is a finding, whatever follows it, and it waives nothing. Virtual
//! path: crates/demo/src/lib.rs.
//!
//! `//~v` markers expect findings on the *next* line (the line under test
//! is itself a pragma comment and cannot carry a marker).

//~v X1
// cosmos-lint: hot
pub fn access(v: &[u64]) -> Vec<u64> {
    v.to_vec()
}

pub fn grow(v: &mut Vec<u64>) {
    //~v X1
    // cosmos-lint: allow(H2): a leftover waiver from the call-graph rules
    v.reserve(64);
}

pub fn first(v: &[u64]) -> u64 {
    *v.first().expect("bad") // cosmos-lint: allow(P3): waives nothing //~ X1 P3
}

// A comment that only mentions cosmos-lint: in prose is not a pragma.
pub fn prose() {}

/* cosmos-lint: hot — a block comment is not a pragma */
pub const TEXT: &str = "// cosmos-lint: hot";
