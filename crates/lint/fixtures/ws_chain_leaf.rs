//! Leaf functions reached only through the hot root in ws_chain_root.rs;
//! every finding here must carry the chain back to that root.

pub fn stage_two(depth: u64, m: &std::sync::Mutex<u64>) {
    let scratch = Vec::<u8>::with_capacity(depth as usize); //~ H2
    let floor = guarded(m);
    let _ = floor + scratch.len() as u64;
}

fn guarded(m: &std::sync::Mutex<u64>) -> u64 {
    let held = m.lock(); //~ H3
    *held.unwrap() //~ H4
}
