//! P3 fixture: an `expect` message must state the invariant that makes
//! failure impossible. Virtual path: crates/demo/src/lib.rs.

pub fn vague(o: Option<u64>) -> u64 {
    o.expect("bad") //~ P3
}

pub fn no_space(o: Option<u64>) -> u64 {
    o.expect("nonempty-capacity-invariant") //~ P3
}

pub fn invariant_stated(o: Option<u64>) -> u64 {
    // An expect() that documents why failure is impossible passes.
    o.expect("capacity > 0 is asserted in the constructor")
}

pub fn short_with_spaces(o: Option<u64>) -> u64 {
    o.expect("a b c") //~ P3
}

pub fn ten_bytes_and_a_space(o: Option<u64>) -> u64 {
    o.expect("ten bytes!")
}

pub fn split_over_lines(o: Option<u64>) -> u64 {
    o.expect( //~ P3
        "bad",
    )
}

// Literals, comments and doc examples are inert, and keep the line count.
pub const TEXT: &str = "o.expect(\"bad\")";
pub const RAW: &str = r##"o.expect("bad") "# is still inside"##;
pub const BYTES: &[u8] = br#"o.expect("bad")"#;
pub const CONTINUED: &str = "first \
    second";
pub const RAW_QUOTE: &str = r#"x" o.expect("bad") "#;

/// ```
/// Some(1u64).expect("bad");
/// ```
pub fn doc_example() {}

/* o.expect("bad") /* nested */ o.expect("bad") */

pub const QUOTE: &str = "\"";
pub fn after_an_escaped_quote(o: Option<u64>) -> u64 {
    o.expect("bad") //~ P3
}

pub fn after_char_and_lifetime<'a>(o: Option<&'a u8>) -> (char, &'a u8) {
    ('"', o.expect("bad")) //~ P3
}

#[cfg(feature = "x")]
pub fn feature_gated(o: Option<u64>) -> u64 {
    o.expect("bad") //~ P3
}

#[cfg(all(test, unix))]
fn test_only(o: Option<u64>) -> u64 {
    o.expect("bad")
}

#[test]
fn top_level_test() {
    Some(1u64).expect("bad");
}

#[cfg(test)]
mod tests {
    #[test]
    fn terse_expects_in_tests_are_fine() {
        assert_eq!(Some(1u64).expect("one"), 1);
    }
}
