//! A method named like a std method (`get`) next to hot callers: a call
//! through a field (`self.slots.get(i)`) is the field's own, std `get`, so
//! it adds no edge; only a bare `self.get(i)` reaches this file's `get`.

pub struct Table {
    slots: Vec<u32>,
}

impl Table {
    // cosmos-lint: hot
    pub fn entry(&self, i: usize) -> u32 {
        self.slots.get(i).copied().unwrap_or(0)
    }

    // cosmos-lint: hot
    pub fn lookup(&self, i: usize) -> u32 {
        self.get(i)
    }

    fn get(&self, i: usize) -> u32 {
        let scratch = vec![self.slots.len()]; //~ H2
        scratch.len() as u32 + i as u32
    }
}
