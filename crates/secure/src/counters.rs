//! Counter schemes: monolithic, split, and MorphCtr.
//!
//! A counter block is one 64 B line of counter metadata covering several
//! data lines. The three schemes differ in coverage and in how a block's
//! 512 bits are divided:
//!
//! | Scheme      | Coverage | Layout |
//! |-------------|----------|--------|
//! | Monolithic  | 1 : 8    | eight per-line counters, modeled as minors capped at 2^20−1 under one shared major that an overflowing minor bumps |
//! | Split       | 1 : 64   | one 64-bit major + 64 × 7-bit minors |
//! | MorphCtr    | 1 : 128  | 57-bit major + 7-bit format + 448 payload bits, morphing between uniform 3-bit minors and zero-counter-compressed (ZCC) formats |
//!
//! A data-line write increments its minor counter. When the minor can no
//! longer be represented (overflow), the whole block's major is bumped and
//! all minors reset — requiring *re-encryption* of every covered data line
//! (the paper charges this as background 64 B write traffic; MorphCtr's
//! morphing makes it rare — about 1 per 67 same-counter updates).

use cosmos_common::json::Value;
use cosmos_common::state::{self, LoadResult, State};
use cosmos_common::LineAddr;

/// Which counter organization the memory controller uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CounterScheme {
    /// Eight per-line counters per block (1:8): minors capped at 2^20−1
    /// under a shared major.
    Monolithic,
    /// Split counters: 64-bit major + 64 × 7-bit minors (1:64).
    Split,
    /// MorphCtr: 1:128 with format morphing (uniform / ZCC).
    MorphCtr,
}

impl CounterScheme {
    /// Data lines covered by one counter block.
    pub const fn coverage(self) -> u64 {
        match self {
            CounterScheme::Monolithic => 8,
            CounterScheme::Split => 64,
            CounterScheme::MorphCtr => 128,
        }
    }

    /// Short display name.
    pub const fn name(self) -> &'static str {
        match self {
            CounterScheme::Monolithic => "Mono",
            CounterScheme::Split => "Split",
            CounterScheme::MorphCtr => "MorphCtr",
        }
    }

    /// The counter block index covering `line`.
    #[inline]
    pub const fn block_of(self, line: LineAddr) -> u64 {
        line.index() / self.coverage()
    }

    /// The slot of `line` within its counter block.
    #[inline]
    pub const fn slot_of(self, line: LineAddr) -> usize {
        (line.index() % self.coverage()) as usize
    }
}

impl core::fmt::Display for CounterScheme {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// MorphCtr block formats: how the 448 payload bits are spent.
///
/// `Uniform` stores 128 × 3-bit minors. The ZCC formats spend 128 bits on a
/// zero-bitmap and give wider minors to the (few) non-zero entries; the
/// block morphs to the narrowest format that can represent its contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MorphFormat {
    /// 128 × 3-bit minors (max value 7).
    Uniform,
    /// ZCC: up to `max_nonzero` non-zero minors of `width` bits each.
    Zcc {
        /// Maximum representable non-zero entries.
        max_nonzero: u8,
        /// Bits per non-zero minor.
        width: u8,
    },
}

/// The ZCC format ladder, narrowest first. Payload check:
/// `128 (bitmap) + max_nonzero * width <= 448`.
pub const ZCC_FORMATS: [MorphFormat; 4] = [
    MorphFormat::Zcc {
        max_nonzero: 64,
        width: 5,
    },
    MorphFormat::Zcc {
        max_nonzero: 32,
        width: 10,
    },
    MorphFormat::Zcc {
        max_nonzero: 16,
        width: 20,
    },
    MorphFormat::Zcc {
        max_nonzero: 8,
        width: 20, // width capped at 20 bits (minor fits the OTP seed field)
    },
];

impl MorphFormat {
    /// Maximum minor value representable in this format.
    pub const fn max_minor(self) -> u64 {
        match self {
            MorphFormat::Uniform => 7,
            MorphFormat::Zcc { width, .. } => (1u64 << width) - 1,
        }
    }

    /// Whether `minors` fit this format.
    pub fn fits(self, minors: &[u32]) -> bool {
        let nonzero = minors.iter().filter(|&&m| m != 0).count() as u32;
        let max_minor = minors.iter().copied().max().unwrap_or(0);
        self.fits_summary(nonzero, max_minor)
    }

    /// Whether a block with `nonzero` non-zero minors whose largest minor is
    /// `max_minor` fits this format. Fit is a pure function of this summary:
    /// Uniform needs `max <= 7`; a ZCC format needs the non-zero count under
    /// its budget and every minor under `2^width`.
    #[inline]
    pub const fn fits_summary(self, nonzero: u32, max_minor: u32) -> bool {
        match self {
            MorphFormat::Uniform => max_minor <= 7,
            MorphFormat::Zcc { max_nonzero, width } => {
                nonzero <= max_nonzero as u32 && (max_minor as u64) < (1u64 << width)
            }
        }
    }

    /// Chooses the best format for `minors`, or `None` if nothing fits
    /// (block overflow -> re-encryption).
    pub fn choose(minors: &[u32]) -> Option<MorphFormat> {
        let nonzero = minors.iter().filter(|&&m| m != 0).count() as u32;
        let max_minor = minors.iter().copied().max().unwrap_or(0);
        Self::choose_summary(nonzero, max_minor)
    }

    /// [`MorphFormat::choose`] from the `(nonzero, max_minor)` summary alone
    /// — O(formats) instead of O(coverage × formats), so the counter store
    /// can pick formats incrementally on the write path.
    #[inline]
    pub fn choose_summary(nonzero: u32, max_minor: u32) -> Option<MorphFormat> {
        if MorphFormat::Uniform.fits_summary(nonzero, max_minor) {
            return Some(MorphFormat::Uniform);
        }
        ZCC_FORMATS
            .iter()
            .copied()
            .find(|f| f.fits_summary(nonzero, max_minor))
    }
}

/// One counter block's state, stored zero-counter-compressed.
///
/// As in MorphCtr's ZCC formats, a block keeps a bitmap of which of its
/// `coverage` minors are non-zero and only those minors, in slot order: the
/// minor of slot `s` sits at index `popcount(bitmap below s)`. Touched
/// blocks mostly hold one or two non-zero minors, so a block costs 4 B of
/// heap per non-zero minor rather than 4 B per covered line. The worst case
/// is no larger than a dense array: the minor list grows by doubling from 4
/// and every coverage is a power of two, so a block whose minors are all
/// non-zero holds at most `coverage` of them. [`CounterBlock::minor`] reads
/// one slot; [`CounterBlock::minors`] expands the dense array for the cold
/// consumers (snapshots, Merkle leaf hashes, shadow priming).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterBlock {
    /// The shared major counter (bumped on overflow / re-encryption).
    pub major: u64,
    /// Current MorphCtr format (always `Uniform` for non-Morph schemes'
    /// reporting; unused by them).
    pub format: MorphFormat,
    /// Bit `s % 64` of word `s / 64` is set iff slot `s`'s minor is non-zero.
    nonzero_map: [u64; 2],
    /// The non-zero minors in ascending slot order.
    nonzero: Vec<u32>,
    /// Largest minor in the block, maintained incrementally (minors only
    /// grow between overflow resets).
    max_minor: u32,
    /// Data lines covered (at most 128, so two bitmap words suffice).
    coverage: u8,
}

impl CounterBlock {
    fn new(coverage: u64) -> Self {
        debug_assert!(coverage <= 128 && coverage.is_power_of_two());
        Self {
            major: 0,
            format: MorphFormat::Uniform,
            nonzero_map: [0; 2],
            // cosmos-lint: allow(H2): the minor list starts empty and grows by doubling only as slots first turn non-zero — at most log2(coverage) - 1 allocations over the block's life (overflow keeps the capacity), amortized over every later access to it
            nonzero: Vec::new(),
            max_minor: 0,
            coverage: coverage as u8,
        }
    }

    /// Rebuilds a block from its dense minors (snapshot restore).
    fn from_dense(major: u64, minors: &[u32], format: MorphFormat) -> Self {
        let mut block = Self::new(minors.len() as u64);
        block.major = major;
        block.format = format;
        for (slot, &m) in minors.iter().enumerate().filter(|&(_, &m)| m != 0) {
            block.nonzero_map[slot / 64] |= 1 << (slot % 64);
            block.nonzero.push(m);
        }
        block.max_minor = minors.iter().copied().max().unwrap_or(0);
        block
    }

    /// Whether `slot`'s minor is non-zero, and its index in `nonzero` (or,
    /// if it is zero, the index it would be inserted at).
    #[inline]
    fn locate(&self, slot: usize) -> (bool, usize) {
        let (word, bit) = (slot / 64, slot % 64);
        let map = self.nonzero_map[word];
        let below = (map & ((1 << bit) - 1)).count_ones()
            + if word == 1 {
                self.nonzero_map[0].count_ones()
            } else {
                0
            };
        ((map >> bit) & 1 == 1, below as usize)
    }

    /// The minor counter of `slot`.
    #[inline]
    pub fn minor(&self, slot: usize) -> u32 {
        match self.locate(slot) {
            (true, rank) => self.nonzero[rank],
            (false, _) => 0,
        }
    }

    /// All `coverage` minor counters, zeros included, in slot order.
    pub fn minors(&self) -> Vec<u32> {
        (0..usize::from(self.coverage))
            .map(|slot| self.minor(slot))
            .collect()
    }

    /// Count of non-zero minors.
    #[inline]
    fn nonzero_count(&self) -> u32 {
        self.nonzero.len() as u32
    }

    /// Increments `slot`'s minor unless it already is `cap`; returns
    /// whether it did. A minor leaving zero joins the non-zero list.
    #[inline]
    fn bump_minor(&mut self, slot: usize, cap: u64) -> bool {
        let next = match self.locate(slot) {
            (true, rank) => {
                let next = self.nonzero[rank] + 1;
                if u64::from(next) > cap {
                    return false;
                }
                self.nonzero[rank] = next;
                next
            }
            (false, rank) => {
                self.nonzero_map[slot / 64] |= 1 << (slot % 64);
                self.nonzero.insert(rank, 1);
                1
            }
        };
        self.max_minor = self.max_minor.max(next);
        true
    }

    /// Resets every minor to zero (overflow).
    fn clear_minors(&mut self) {
        self.nonzero_map = [0; 2];
        self.nonzero.clear();
        self.max_minor = 0;
    }
}

/// What happened when a counter was incremented.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IncrementOutcome {
    /// The minor was bumped in place.
    Ok,
    /// The block morphed to a wider ZCC format (MorphCtr only) — a cheap
    /// in-place re-layout, no extra memory traffic.
    Morphed {
        /// The format after morphing.
        to: MorphFormat,
    },
    /// The block overflowed: major bumped, minors reset, and every covered
    /// data line must be re-encrypted (background write traffic).
    Overflow {
        /// Data lines requiring re-encryption.
        reencrypt: Vec<LineAddr>,
    },
}

/// Saved by name; a snapshot restores only into the scheme that saved it.
impl State for CounterScheme {
    fn save(&self) -> Value {
        self.name().into()
    }

    fn load(&mut self, v: &Value) -> LoadResult {
        state::same(self, v)
    }
}

/// A counter block as a snapshot stores it: every minor, zeros included,
/// whatever the in-memory form. The format is derived on restore.
#[derive(Clone, Default)]
struct SavedBlock {
    idx: u64,
    major: u64,
    minors: Vec<u32>,
}

/// Blocks per page of the counter table.
const PAGE_BLOCKS: usize = 64;

/// [`PAGE_BLOCKS`] consecutive blocks of the counter table, allocated
/// when the first of them is touched.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Page {
    /// Bit `i` is set iff block `i` of the page is materialized.
    present: u64,
    blocks: [CounterBlock; PAGE_BLOCKS],
}

impl Page {
    /// Out of line, so a lookup of an allocated page stays small enough
    /// to inline.
    #[cold]
    #[inline(never)]
    fn new(coverage: u64) -> Box<Self> {
        // cosmos-lint: allow(H2): a page of 64 counter blocks is allocated on the first touch of any of them and kept for the store's life, so a run allocates once per page its writebacks reach, not per access
        Box::new(Self {
            present: 0,
            blocks: core::array::from_fn(|_| CounterBlock::new(coverage)),
        })
    }
}

/// The counter blocks, indexed by block number: a directory of lazily
/// allocated pages that grows to the highest page touched. Iteration is
/// in ascending block order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct CounterTable {
    pages: Vec<Option<Box<Page>>>,
}

/// The page of block `idx` and the block's place in it.
#[inline]
fn page_of(idx: u64) -> (usize, usize) {
    (
        (idx / PAGE_BLOCKS as u64) as usize,
        (idx % PAGE_BLOCKS as u64) as usize,
    )
}

impl CounterTable {
    /// The materialized block `idx`, if any.
    #[inline]
    fn get(&self, idx: u64) -> Option<&CounterBlock> {
        let (p, i) = page_of(idx);
        let page = self.pages.get(p)?.as_deref()?;
        (page.present >> i & 1 == 1).then(|| &page.blocks[i])
    }

    /// Block `idx`, materialized (as a block of `coverage` zero minors,
    /// allocating its page) if it was not.
    // cosmos-lint: hot
    #[inline]
    fn entry(&mut self, idx: u64, coverage: u64) -> &mut CounterBlock {
        let (p, i) = page_of(idx);
        if p >= self.pages.len() {
            self.grow(p);
        }
        let page = self.pages[p].get_or_insert_with(|| Page::new(coverage));
        page.present |= 1 << i;
        &mut page.blocks[i]
    }

    /// Extends the directory to page `p`, its new pages absent: like a
    /// page's allocation, only on the first touch of a page past the
    /// directory's end, with the `Vec`'s amortized growth.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, p: usize) {
        self.pages.resize_with(p + 1, || None);
    }

    /// Every materialized block in ascending index order.
    fn iter(&self) -> impl Iterator<Item = (u64, &CounterBlock)> + '_ {
        let pages = self.pages.iter().enumerate();
        pages
            .filter_map(|(p, page)| Some((p, page.as_deref()?)))
            .flat_map(|(p, page)| {
                (0..PAGE_BLOCKS)
                    .filter(move |&i| page.present >> i & 1 == 1)
                    .map(move |i| ((p * PAGE_BLOCKS + i) as u64, &page.blocks[i]))
            })
    }
}

/// All counter blocks of the protected region, managed functionally.
///
/// Blocks are materialized lazily: untouched blocks are implicit zeros
/// (fresh memory), matching a real system where counters start zeroed.
/// Data lines lie below [`LineAddr::DATA_LIMIT`], so block numbers lie
/// below those lines' last block, which an increment debug-asserts and a
/// restore checks.
#[derive(Clone, Debug)]
pub struct CounterStore {
    scheme: CounterScheme,
    table: CounterTable,
    /// Total overflow (re-encryption) events so far.
    overflows: u64,
    /// Total morph events so far (MorphCtr only).
    morphs: u64,
    /// Total increments.
    increments: u64,
}

cosmos_common::state! {
    SavedBlock { idx, major, minors }
    CounterStore -> Value {
        scheme, overflows, morphs, increments,
        blocks: via(Self::saved_blocks, Self::restore_blocks),
    }
}

impl CounterStore {
    /// Creates an empty store for `scheme`.
    pub fn new(scheme: CounterScheme) -> Self {
        Self {
            scheme,
            table: CounterTable::default(),
            overflows: 0,
            morphs: 0,
            increments: 0,
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> CounterScheme {
        self.scheme
    }

    /// Number of overflow (re-encryption) events.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Number of MorphCtr format morphs.
    pub fn morphs(&self) -> u64 {
        self.morphs
    }

    /// Total increments performed.
    pub fn increments(&self) -> u64 {
        self.increments
    }

    /// Blocks the store can hold: those of the data lines below
    /// [`LineAddr::DATA_LIMIT`].
    fn block_limit(&self) -> u64 {
        LineAddr::DATA_LIMIT.div_ceil(self.scheme.coverage())
    }

    /// The effective counter value of `line` (what goes into the OTP seed):
    /// `major << 20 | minor`. Minors are capped below 2^20 by every scheme.
    pub fn value(&self, line: LineAddr) -> u64 {
        let block_idx = self.scheme.block_of(line);
        let slot = self.scheme.slot_of(line);
        match self.table.get(block_idx) {
            Some(b) => (b.major << 20) | b.minor(slot) as u64,
            None => 0,
        }
    }

    /// Iterates over every materialized block in ascending index order
    /// (untouched blocks are implicit zeros and not yielded). Used to prime
    /// shadow models from a restored store.
    pub fn materialized_blocks(&self) -> impl Iterator<Item = (u64, &CounterBlock)> + '_ {
        self.table.iter()
    }

    /// Reads the whole block covering `line` (zeros if untouched).
    pub fn block(&self, line: LineAddr) -> CounterBlock {
        let block_idx = self.scheme.block_of(line);
        self.table
            .get(block_idx)
            .cloned()
            .unwrap_or_else(|| CounterBlock::new(self.scheme.coverage()))
    }

    /// Increments the counter of `line` (a memory write), handling morphing
    /// and overflow per the scheme.
    // cosmos-lint: hot
    pub fn increment(&mut self, line: LineAddr) -> IncrementOutcome {
        self.increments += 1;
        let scheme = self.scheme;
        let coverage = scheme.coverage();
        let block_idx = scheme.block_of(line);
        debug_assert!(
            block_idx < self.block_limit(),
            "line {:#x} is past the data lines",
            line.index()
        );
        let slot = scheme.slot_of(line);
        let block = self.table.entry(block_idx, coverage);

        let minor_cap: u64 = match scheme {
            CounterScheme::Monolithic => (1 << 20) - 1,
            CounterScheme::Split => (1 << 7) - 1,
            CounterScheme::MorphCtr => MorphFormat::Zcc {
                max_nonzero: 8,
                width: 20,
            }
            .max_minor(),
        };

        if block.bump_minor(slot, minor_cap) {
            if scheme == CounterScheme::MorphCtr {
                match MorphFormat::choose_summary(block.nonzero_count(), block.max_minor) {
                    Some(f) if f == block.format => IncrementOutcome::Ok,
                    Some(f) => {
                        block.format = f;
                        self.morphs += 1;
                        IncrementOutcome::Morphed { to: f }
                    }
                    None => self.overflow(block_idx),
                }
            } else {
                IncrementOutcome::Ok
            }
        } else {
            self.overflow(block_idx)
        }
    }

    /// Every materialized block in ascending index order, minors dense.
    fn saved_blocks(&self) -> Vec<SavedBlock> {
        self.table
            .iter()
            .map(|(idx, b)| SavedBlock {
                idx,
                major: b.major,
                minors: b.minors(),
            })
            .collect()
    }

    /// Rebuilds the blocks from their saved minors, deriving each format
    /// (only MorphCtr maintains one) and rejecting minors no format fits,
    /// blocks past [`Self::block_limit`] and blocks saved twice.
    fn restore_blocks(&mut self, v: &Value) -> LoadResult {
        let coverage = self.scheme.coverage();
        let minors = vec![0; coverage as usize];
        let proto = SavedBlock {
            minors,
            ..Default::default()
        };
        let limit = self.block_limit();
        self.table = CounterTable::default();
        for SavedBlock { idx, major, minors } in state::seq(v, &proto)? {
            if idx >= limit {
                return Err(format!(
                    "block {idx}: past the last block {} of the data lines",
                    limit - 1
                ));
            }
            let format = match self.scheme {
                CounterScheme::MorphCtr => MorphFormat::choose(&minors),
                _ => Some(MorphFormat::Uniform),
            };
            let format =
                format.ok_or_else(|| format!("block {idx}: minors fit no MorphCtr format"))?;
            if self.table.get(idx).is_some() {
                return Err(format!("block {idx}: duplicated in snapshot"));
            }
            *self.table.entry(idx, coverage) = CounterBlock::from_dense(major, &minors, format);
        }
        Ok(())
    }

    fn overflow(&mut self, block_idx: u64) -> IncrementOutcome {
        self.overflows += 1;
        let coverage = self.scheme.coverage();
        let block = self.table.entry(block_idx, coverage);
        block.major += 1;
        block.clear_minors();
        block.format = MorphFormat::Uniform;
        let first = block_idx * coverage;
        IncrementOutcome::Overflow {
            // cosmos-lint: allow(H2): minor-counter overflow is the rare re-encryption path (counted in ctr_overflows), not the per-access path
            reencrypt: (first..first + coverage).map(LineAddr::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The dense store this module used to be: every touched block keeps
    /// all `coverage` minors in a `Vec<u32>`. The oracle the compressed
    /// [`CounterStore`] must match increment for increment.
    mod reference {
        use super::super::{CounterScheme, IncrementOutcome, MorphFormat};
        use cosmos_common::LineAddr;
        use std::collections::BTreeMap;

        struct DenseBlock {
            major: u64,
            minors: Vec<u32>,
            format: MorphFormat,
            nonzero: u32,
            max_minor: u32,
        }

        pub struct DenseStore {
            scheme: CounterScheme,
            blocks: BTreeMap<u64, DenseBlock>,
            pub overflows: u64,
            pub morphs: u64,
            increments: u64,
        }

        impl DenseStore {
            pub fn new(scheme: CounterScheme) -> Self {
                Self {
                    scheme,
                    blocks: BTreeMap::new(),
                    overflows: 0,
                    morphs: 0,
                    increments: 0,
                }
            }

            pub fn value(&self, line: LineAddr) -> u64 {
                let slot = self.scheme.slot_of(line);
                match self.blocks.get(&self.scheme.block_of(line)) {
                    Some(b) => (b.major << 20) | b.minors[slot] as u64,
                    None => 0,
                }
            }

            pub fn increment(&mut self, line: LineAddr) -> IncrementOutcome {
                self.increments += 1;
                let scheme = self.scheme;
                let coverage = scheme.coverage();
                let block_idx = scheme.block_of(line);
                let slot = scheme.slot_of(line);
                let block = self.blocks.entry(block_idx).or_insert_with(|| DenseBlock {
                    major: 0,
                    minors: vec![0; coverage as usize],
                    format: MorphFormat::Uniform,
                    nonzero: 0,
                    max_minor: 0,
                });
                let minor_cap: u64 = match scheme {
                    CounterScheme::Monolithic => (1 << 20) - 1,
                    CounterScheme::Split => (1 << 7) - 1,
                    CounterScheme::MorphCtr => MorphFormat::Zcc {
                        max_nonzero: 8,
                        width: 20,
                    }
                    .max_minor(),
                };
                let old = block.minors[slot];
                let next = old as u64 + 1;
                if next <= minor_cap {
                    block.minors[slot] = next as u32;
                    block.nonzero += u32::from(old == 0);
                    block.max_minor = block.max_minor.max(next as u32);
                    if scheme == CounterScheme::MorphCtr {
                        match MorphFormat::choose_summary(block.nonzero, block.max_minor) {
                            Some(f) if f == block.format => IncrementOutcome::Ok,
                            Some(f) => {
                                block.format = f;
                                self.morphs += 1;
                                IncrementOutcome::Morphed { to: f }
                            }
                            None => self.overflow(block_idx),
                        }
                    } else {
                        IncrementOutcome::Ok
                    }
                } else {
                    self.overflow(block_idx)
                }
            }

            fn overflow(&mut self, block_idx: u64) -> IncrementOutcome {
                self.overflows += 1;
                let coverage = self.scheme.coverage();
                let block = self.blocks.get_mut(&block_idx).expect("block exists");
                block.major += 1;
                block.minors.iter_mut().for_each(|m| *m = 0);
                block.format = MorphFormat::Uniform;
                block.nonzero = 0;
                block.max_minor = 0;
                let first = block_idx * coverage;
                IncrementOutcome::Overflow {
                    reencrypt: (first..first + coverage).map(LineAddr::new).collect(),
                }
            }

            pub fn save_state(&self) -> cosmos_common::json::Value {
                use cosmos_common::json::codec;
                let blocks: Vec<_> = self
                    .blocks
                    .iter()
                    .map(|(&idx, b)| {
                        cosmos_common::json!({
                            "idx": (idx),
                            "major": (b.major),
                            "minors": (codec::from_u64s(b.minors.iter().map(|&m| u64::from(m)))),
                        })
                    })
                    .collect();
                cosmos_common::json!({
                    "scheme": (self.scheme.name()),
                    "overflows": (self.overflows),
                    "morphs": (self.morphs),
                    "increments": (self.increments),
                    "blocks": (cosmos_common::json::Value::Array(blocks)),
                })
            }

            /// Every touched block's index, ascending.
            pub fn block_indices(&self) -> Vec<u64> {
                self.blocks.keys().copied().collect()
            }
        }
    }

    const SCHEMES: [CounterScheme; 3] = [
        CounterScheme::Monolithic,
        CounterScheme::Split,
        CounterScheme::MorphCtr,
    ];

    /// Runs `writes` (line, repeats) on both stores, comparing every
    /// outcome and value, then the event counts and snapshots.
    fn check_against_reference(
        scheme: CounterScheme,
        writes: &[(u64, usize)],
    ) -> Result<(), String> {
        let mut store = CounterStore::new(scheme);
        let mut dense = reference::DenseStore::new(scheme);
        for (i, &(line, repeats)) in writes.iter().enumerate() {
            let line = LineAddr::new(line);
            for _ in 0..repeats {
                let (got, want) = (store.increment(line), dense.increment(line));
                if got != want {
                    return Err(format!(
                        "{scheme} write {i}: outcome {got:?}, reference {want:?}"
                    ));
                }
                if store.value(line) != dense.value(line) {
                    return Err(format!("{scheme} write {i}: value differs from reference"));
                }
            }
        }
        if (store.morphs(), store.overflows()) != (dense.morphs, dense.overflows) {
            return Err(format!(
                "{scheme}: morph/overflow counts differ from reference"
            ));
        }
        let blocks: Vec<u64> = store.materialized_blocks().map(|(idx, _)| idx).collect();
        if blocks != dense.block_indices() {
            return Err(format!(
                "{scheme}: materialized blocks {blocks:?}, reference {:?}",
                dense.block_indices()
            ));
        }
        if store.save_state().to_string() != dense.save_state().to_string() {
            return Err(format!("{scheme}: snapshot differs from reference"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Half the writes land in 400 lines (morphs and overflows), a
        /// quarter spread over 2^20 lines (many table pages) and a quarter
        /// over 2^26 lines (far-apart blocks; the table's directory grows
        /// to the highest page, which `golden_counters.rs` takes to the
        /// last block).
        fn compressed_store_matches_dense_reference(
            writes in prop::collection::vec((0u8..4, 0u64..1 << 26, 1usize..140), 1..160),
        ) {
            let writes: Vec<(u64, usize)> = writes
                .iter()
                .map(|&(kind, line, repeats)| {
                    let line = match kind {
                        0 | 1 => line % 400,
                        2 => line % (1 << 20),
                        _ => line,
                    };
                    (line, repeats)
                })
                .collect();
            for scheme in SCHEMES {
                let outcome = check_against_reference(scheme, &writes);
                prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
            }
        }
    }

    #[test]
    fn snapshot_rejects_a_block_past_the_table_bound() {
        for scheme in SCHEMES {
            let mut live = CounterStore::new(scheme);
            live.increment(LineAddr::new(1));
            let limit = live.block_limit();
            assert_eq!(limit * scheme.coverage(), 1 << 31, "{scheme}");
            let with_idx = |idx: u64| {
                let text = live.save_state().to_string();
                let text = text.replace("\"idx\":0,", &format!("\"idx\":{idx},"));
                cosmos_common::json::parse(&text).expect("still JSON")
            };
            let mut restored = CounterStore::new(scheme);
            restored.load_state(&with_idx(limit - 1)).unwrap();
            let last = LineAddr::new((limit - 1) * scheme.coverage() + 1);
            assert_eq!(restored.value(last), 1, "{scheme}");
            let err = CounterStore::new(scheme)
                .load_state(&with_idx(limit))
                .expect_err("a block past the bound must not load");
            assert!(
                err.contains(&format!("block {limit}: past the last block")),
                "{scheme}: {err}"
            );
        }
    }

    #[test]
    fn monolithic_overflow_matches_dense_reference() {
        // 2^20 writes to one line overflow its capped minor into the major.
        check_against_reference(CounterScheme::Monolithic, &[(3, 1 << 20), (5, 2), (3, 4)])
            .unwrap();
    }

    #[test]
    fn fully_nonzero_block_holds_no_more_than_dense_minors() {
        for scheme in SCHEMES {
            let coverage = scheme.coverage();
            let mut s = CounterStore::new(scheme);
            for line in 0..coverage {
                s.increment(LineAddr::new(line));
            }
            // The stored block itself: `block()` returns a right-sized clone.
            let b = s.table.get(0).expect("block 0 was written");
            assert_eq!(b.nonzero_count() as u64, coverage, "{scheme}");
            assert!(
                b.nonzero.capacity() as u64 <= coverage,
                "{scheme}: {} minor slots for coverage {coverage}",
                b.nonzero.capacity()
            );
        }
    }

    #[test]
    fn coverage_and_mapping() {
        let l = LineAddr::new(200);
        assert_eq!(CounterScheme::Monolithic.block_of(l), 25);
        assert_eq!(CounterScheme::Monolithic.slot_of(l), 0);
        assert_eq!(CounterScheme::Split.block_of(l), 3);
        assert_eq!(CounterScheme::Split.slot_of(l), 8);
        assert_eq!(CounterScheme::MorphCtr.block_of(l), 1);
        assert_eq!(CounterScheme::MorphCtr.slot_of(l), 72);
    }

    #[test]
    fn increment_changes_value_monotonically() {
        let mut s = CounterStore::new(CounterScheme::MorphCtr);
        let line = LineAddr::new(5);
        let mut last = s.value(line);
        for _ in 0..100 {
            s.increment(line);
            let v = s.value(line);
            assert!(v > last, "counter must be strictly increasing");
            last = v;
        }
    }

    #[test]
    fn split_overflow_at_128_writes() {
        let mut s = CounterStore::new(CounterScheme::Split);
        let line = LineAddr::new(7);
        let mut overflowed_at = None;
        for i in 1..=200 {
            if let IncrementOutcome::Overflow { reencrypt } = s.increment(line) {
                assert_eq!(reencrypt.len(), 64);
                overflowed_at = Some(i);
                break;
            }
        }
        assert_eq!(overflowed_at, Some(128), "7-bit minor overflows at 128th");
    }

    #[test]
    fn overflow_resets_minors_and_bumps_major() {
        let mut s = CounterStore::new(CounterScheme::Split);
        let line = LineAddr::new(0);
        for _ in 0..128 {
            s.increment(line);
        }
        let b = s.block(line);
        assert_eq!(b.major, 1);
        assert!(b.minors().iter().all(|&m| m == 0));
        // Value still monotonically above the pre-overflow value.
        assert!(s.value(line) >= (1 << 20));
    }

    #[test]
    fn morph_uniform_to_zcc() {
        let mut s = CounterStore::new(CounterScheme::MorphCtr);
        let line = LineAddr::new(3);
        // 8 writes to the same line: minor reaches 8 > uniform max 7,
        // must morph to ZCC (one nonzero, fits 64x5).
        let mut morphed = false;
        for _ in 0..8 {
            if let IncrementOutcome::Morphed { to } = s.increment(line) {
                assert_eq!(
                    to,
                    MorphFormat::Zcc {
                        max_nonzero: 64,
                        width: 5
                    }
                );
                morphed = true;
            }
        }
        assert!(morphed);
        assert_eq!(s.morphs(), 1);
        assert_eq!(s.overflows(), 0);
    }

    #[test]
    fn zcc_spreads_overflow_when_many_nonzero() {
        let mut s = CounterStore::new(CounterScheme::MorphCtr);
        // Make 65 distinct lines in one block non-zero with value 8: exceeds
        // Uniform (max 7) and Zcc64x5's nonzero budget would be 65 > 64 —
        // after width escalation it needs Zcc32x10... which allows only 32
        // nonzero. Nothing fits -> overflow.
        let mut outcome = IncrementOutcome::Ok;
        'outer: for slot in 0..65u64 {
            for _ in 0..8 {
                outcome = s.increment(LineAddr::new(slot));
                if matches!(outcome, IncrementOutcome::Overflow { .. }) {
                    break 'outer;
                }
            }
        }
        assert!(
            matches!(outcome, IncrementOutcome::Overflow { .. }),
            "dense non-zero minors must overflow eventually"
        );
        assert_eq!(s.overflows(), 1);
    }

    #[test]
    fn morphctr_single_hot_line_survives_many_writes() {
        // MorphCtr's whole point: a single hot counter can take ~1M writes
        // (20-bit ZCC minor) before re-encryption.
        let mut s = CounterStore::new(CounterScheme::MorphCtr);
        let line = LineAddr::new(9);
        for _ in 0..10_000 {
            assert!(
                !matches!(s.increment(line), IncrementOutcome::Overflow { .. }),
                "premature overflow"
            );
        }
    }

    #[test]
    fn untouched_blocks_read_zero() {
        let s = CounterStore::new(CounterScheme::MorphCtr);
        assert_eq!(s.value(LineAddr::new(1_000_000)), 0);
    }

    #[test]
    fn different_lines_independent_minors() {
        let mut s = CounterStore::new(CounterScheme::Split);
        s.increment(LineAddr::new(0));
        s.increment(LineAddr::new(0));
        s.increment(LineAddr::new(1));
        assert_eq!(s.value(LineAddr::new(0)) & 0xFFFFF, 2);
        assert_eq!(s.value(LineAddr::new(1)) & 0xFFFFF, 1);
        assert_eq!(s.value(LineAddr::new(2)), 0);
    }

    #[test]
    fn incremental_summary_matches_rescan() {
        // The (nonzero, max_minor) summary maintained on the increment path
        // must agree with a from-scratch scan — and therefore the format
        // chosen from it must equal MorphFormat::choose on the full minors.
        let mut s = CounterStore::new(CounterScheme::MorphCtr);
        let mut rng = cosmos_common::SplitMix64::new(0xC05);
        for _ in 0..20_000 {
            let line = LineAddr::new(rng.next_index(256) as u64);
            s.increment(line);
            let b = s.block(line);
            let minors = b.minors();
            let nz = minors.iter().filter(|&&m| m != 0).count() as u32;
            let max = minors.iter().copied().max().unwrap_or(0);
            assert_eq!((b.nonzero_count(), b.max_minor), (nz, max));
            assert_eq!(Some(b.format), MorphFormat::choose(&minors));
        }
    }

    /// Snapshot restore must reproduce the store exactly — including the
    /// derived per-block summary caches — so post-restore increments behave
    /// identically (same morphs, same overflow points).
    #[test]
    fn snapshot_round_trips_every_scheme() {
        for scheme in [
            CounterScheme::Monolithic,
            CounterScheme::Split,
            CounterScheme::MorphCtr,
        ] {
            let mut live = CounterStore::new(scheme);
            let mut rng = cosmos_common::SplitMix64::new(0x5EED ^ scheme.coverage());
            for _ in 0..30_000 {
                live.increment(LineAddr::new(rng.next_index(512) as u64));
            }
            let saved = live.save_state();
            let mut restored = CounterStore::new(scheme);
            restored.load_state(&saved).unwrap();
            assert_eq!(restored.table, live.table, "{scheme}");
            assert_eq!(restored.overflows(), live.overflows());
            assert_eq!(restored.morphs(), live.morphs());
            assert_eq!(restored.increments(), live.increments());
            // Identical tails.
            let mut rng2 = rng;
            for _ in 0..5_000 {
                let a = live.increment(LineAddr::new(rng.next_index(512) as u64));
                let b = restored.increment(LineAddr::new(rng2.next_index(512) as u64));
                assert_eq!(a, b, "{scheme} diverged after restore");
            }
        }
    }

    #[test]
    fn snapshot_rejects_scheme_mismatch_and_corruption() {
        let mut live = CounterStore::new(CounterScheme::Split);
        live.increment(LineAddr::new(1));
        let saved = live.save_state();

        let mut wrong = CounterStore::new(CounterScheme::MorphCtr);
        let err = wrong.load_state(&saved).unwrap_err();
        assert!(err.contains("Split") && err.contains("MorphCtr"), "{err}");

        // Truncate a block's minors array.
        let mut bad = saved.clone();
        if let cosmos_common::json::Value::Object(m) = &mut bad {
            if let Some(cosmos_common::json::Value::Array(blocks)) = m.get_mut("blocks") {
                if let cosmos_common::json::Value::Object(b) = &mut blocks[0] {
                    b.insert(
                        "minors",
                        cosmos_common::json::Value::Array(vec![cosmos_common::json::Value::UInt(
                            1,
                        )]),
                    );
                }
            }
        }
        let err = CounterStore::new(CounterScheme::Split)
            .load_state(&bad)
            .unwrap_err();
        assert!(err.contains("length"), "{err}");
    }

    #[test]
    fn format_fits_logic() {
        assert!(MorphFormat::Uniform.fits(&[7, 0, 3]));
        assert!(!MorphFormat::Uniform.fits(&[8]));
        let z = MorphFormat::Zcc {
            max_nonzero: 2,
            width: 5,
        };
        assert!(z.fits(&[31, 0, 17]));
        assert!(!z.fits(&[32]));
        assert!(!z.fits(&[1, 2, 3]));
    }
}
