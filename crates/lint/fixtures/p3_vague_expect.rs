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

#[cfg(test)]
mod tests {
    #[test]
    fn terse_expects_in_tests_are_fine() {
        assert_eq!(Some(1u64).expect("one"), 1);
    }
}
