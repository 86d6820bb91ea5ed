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

/// The minor word of a [`BlockRecord`]: bit 63 marks a spilled block,
/// bits 57..63 hold the minors' width and bits 0..57 the payload, either
/// the packed non-zero minors or a spilled block's spill index.
const SPILLED: u64 = 1 << 63;
/// Where the width sits in the minor word.
const WIDTH_SHIFT: u32 = 57;
/// The width field: six bits, since a restored Split or Monolithic minor
/// may be any `u32` (32 bits wide).
const WIDTH_MASK: u64 = 0x3f;
/// Payload bits of the minor word: the packed minors of an inline block
/// take `nonzero × width` of them.
const PAYLOAD_BITS: u32 = 57;
/// The payload field of the minor word.
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

/// Bits needed to write `m` (0 for 0).
#[inline]
const fn bit_len(m: u32) -> u32 {
    u32::BITS - m.leading_zeros()
}

/// The largest minor of `width` bits.
#[inline]
const fn width_max(width: u32) -> u32 {
    match u32::MAX.checked_shr(u32::BITS - width) {
        Some(max) => max,
        None => 0,
    }
}

/// The MorphCtr format of a block with `nonzero` non-zero minors whose
/// largest minor is `width` bits wide. Every format bound is `max <= 7`
/// or `max < 2^k`, which a minor meets exactly when the all-ones minor of
/// its width does, so the width decides the format as the maximum would.
#[inline]
fn format_of(nonzero: u32, width: u32) -> Option<MorphFormat> {
    MorphFormat::choose_summary(nonzero, width_max(width))
}

/// One materialized counter block as its page stores it: 32 bytes, no
/// heap of its own.
///
/// The minors are kept zero-counter-compressed, as in MorphCtr's ZCC
/// formats: bit `s % 64` of `nonzero_map[s / 64]` is set iff slot `s`'s
/// minor is non-zero. The `minors` word holds `width`, the bit length of
/// the block's largest minor, and, while `nonzero × width` fits its 57
/// payload bits, the non-zero minors themselves, `width` bits each in
/// ascending slot order (the minor of slot `s` is field
/// `popcount(nonzero_map below s)`). A block whose minors outgrow the word
/// is *spilled*: the word keeps the width and holds the index of a dense
/// `coverage`-minor array in [`Spills`] instead. Minors only grow between
/// overflows, so a block spills at most once per overflow, and an overflow
/// returns it to the word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BlockRecord {
    /// The shared major counter (bumped on overflow / re-encryption).
    major: u64,
    /// Which minors are non-zero.
    nonzero_map: [u64; 2],
    /// Spill flag, width and payload (see [`SPILLED`]).
    minors: u64,
}

impl BlockRecord {
    /// Count of non-zero minors.
    #[inline]
    const fn nonzero(&self) -> u32 {
        self.nonzero_map[0].count_ones() + self.nonzero_map[1].count_ones()
    }

    /// Bit length of the largest minor.
    #[inline]
    const fn width(&self) -> u32 {
        ((self.minors >> WIDTH_SHIFT) & WIDTH_MASK) as u32
    }

    /// The spill index of a spilled block.
    #[inline]
    const fn spill(&self) -> Option<usize> {
        if self.minors & SPILLED != 0 {
            Some((self.minors & PAYLOAD_MASK) as usize)
        } else {
            None
        }
    }

    /// Whether `slot`'s minor is non-zero, and its rank among the
    /// non-zero minors (or, if it is zero, the rank it would take).
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

    /// Field `rank` of an inline block's packed minors.
    #[inline]
    fn packed(&self, rank: usize) -> u32 {
        let width = self.width();
        ((self.minors >> (rank as u32 * width)) & u64::from(width_max(width))) as u32
    }

    /// The minor word of `width` and `payload`, spill flag clear.
    #[inline]
    const fn word(width: u32, payload: u64) -> u64 {
        ((width as u64) << WIDTH_SHIFT) | payload
    }
}

/// The dense minor arrays of spilled blocks, `coverage` minors each, in
/// one arena. An overflow zeroes its block's array and frees it for the
/// next block that spills.
#[derive(Clone, Debug, Default)]
struct Spills {
    dense: Vec<u32>,
    /// Freed spill indices, reused before the arena grows.
    free: Vec<usize>,
}

impl Spills {
    /// The minors of spill `at`.
    #[inline]
    fn minors(&self, at: usize, coverage: usize) -> &[u32] {
        &self.dense[at * coverage..(at + 1) * coverage]
    }

    /// Increments `slot`'s minor of `block` unless it already is `cap` (or
    /// more, which only a restored Split or Monolithic block can hold);
    /// returns whether it did.
    #[inline]
    fn bump(&mut self, block: &mut BlockRecord, slot: usize, cap: u32, coverage: usize) -> bool {
        let (present, rank) = block.locate(slot);
        let width = block.width();
        if let Some(at) = block.spill() {
            let minor = &mut self.dense[at * coverage + slot];
            if *minor >= cap {
                return false;
            }
            *minor += 1;
            let width = width.max(bit_len(*minor));
            block.minors = SPILLED | BlockRecord::word(width, at as u64);
        } else {
            let old = if present { block.packed(rank) } else { 0 };
            if old >= cap {
                return false;
            }
            let next = old + 1;
            let grown = width.max(bit_len(next));
            let nonzero = block.nonzero() + u32::from(!present);
            if nonzero * grown > PAYLOAD_BITS {
                let at = self.spill(block, coverage);
                self.dense[at * coverage + slot] = next;
                block.minors = SPILLED | BlockRecord::word(grown, at as u64);
            } else {
                let packed = widen(block.minors & PAYLOAD_MASK, block.nonzero(), width, grown);
                let packed = if present {
                    set_field(packed, rank, grown, next)
                } else {
                    insert_field(packed, rank, grown, next)
                };
                block.minors = BlockRecord::word(grown, packed);
            }
        }
        block.nonzero_map[slot / 64] |= 1 << (slot % 64);
        true
    }

    /// Moves an inline block's minors into a dense array and returns its
    /// spill index; the block's word is left for the caller to set.
    #[cold]
    #[inline(never)]
    fn spill(&mut self, block: &BlockRecord, coverage: usize) -> usize {
        let at = self.take(coverage);
        let dense = &mut self.dense[at * coverage..(at + 1) * coverage];
        for (rank, slot) in set_bits(block.nonzero_map).enumerate() {
            dense[slot] = block.packed(rank);
        }
        at
    }

    /// A zeroed spill array: a freed one, or a new one at the arena's end.
    fn take(&mut self, coverage: usize) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let at = self.dense.len() / coverage;
            self.dense.resize(self.dense.len() + coverage, 0);
            at
        })
    }

    /// Resets every minor of `block` to zero (overflow), freeing its spill
    /// array if it has one.
    fn clear(&mut self, block: &mut BlockRecord, coverage: usize) {
        if let Some(at) = block.spill() {
            self.dense[at * coverage..(at + 1) * coverage].fill(0);
            self.free.push(at);
        }
        block.nonzero_map = [0; 2];
        block.minors = 0;
    }

    /// Sets `block`'s minors to `minors` (snapshot restore; the block has
    /// none yet).
    fn load(&mut self, block: &mut BlockRecord, minors: &[u32]) {
        for (slot, _) in minors.iter().enumerate().filter(|&(_, &m)| m != 0) {
            block.nonzero_map[slot / 64] |= 1 << (slot % 64);
        }
        let width = bit_len(minors.iter().copied().max().unwrap_or(0));
        if block.nonzero() * width > PAYLOAD_BITS {
            let at = self.take(minors.len());
            self.dense[at * minors.len()..(at + 1) * minors.len()].copy_from_slice(minors);
            block.minors = SPILLED | BlockRecord::word(width, at as u64);
        } else {
            let packed = minors
                .iter()
                .filter(|&&m| m != 0)
                .enumerate()
                .fold(0, |packed, (rank, &m)| {
                    packed | (u64::from(m) << (rank as u32 * width))
                });
            block.minors = BlockRecord::word(width, packed);
        }
    }
}

/// The set bits of a two-word bitmap, ascending.
fn set_bits(map: [u64; 2]) -> impl Iterator<Item = usize> {
    (0..128).filter(move |&s| (map[s / 64] >> (s % 64)) & 1 == 1)
}

/// `count` packed fields of `from` bits each, re-packed `to` bits each.
#[inline]
fn widen(packed: u64, count: u32, from: u32, to: u32) -> u64 {
    if from == to {
        return packed;
    }
    let mask = u64::from(width_max(from));
    (0..count).fold(0, |out, i| {
        out | (((packed >> (i * from)) & mask) << (i * to))
    })
}

/// `packed` with field `rank` (`width` bits each) set to `value`.
#[inline]
fn set_field(packed: u64, rank: usize, width: u32, value: u32) -> u64 {
    let shift = rank as u32 * width;
    (packed & !(u64::from(width_max(width)) << shift)) | (u64::from(value) << shift)
}

/// `packed` with `value` inserted as field `rank` (`width` bits each),
/// the fields from `rank` on moving up one.
#[inline]
fn insert_field(packed: u64, rank: usize, width: u32, value: u32) -> u64 {
    let shift = rank as u32 * width;
    let below = packed & ((1 << shift) - 1);
    below | (u64::from(value) << shift) | ((packed >> shift) << (shift + width))
}

/// One counter block, read from a [`CounterStore`].
///
/// The store keeps each materialized block as a 32-byte record inside
/// its page: the major, a bitmap of the non-zero minors and one word
/// holding those minors bit-packed at the width of the largest, or, for
/// the few blocks whose minors outgrow that word, the index of a dense
/// array of all `coverage` minors. A `CounterBlock` is a copy of the
/// record plus that array, if any. [`CounterBlock::minor`] reads one
/// slot; [`CounterBlock::minors`] expands the dense array for the cold
/// consumers (snapshots, Merkle leaf hashes, shadow priming). The MorphCtr
/// format is not stored: [`CounterBlock::format`] derives it from the
/// minors.
#[derive(Clone, Copy, Debug)]
pub struct CounterBlock<'a> {
    record: BlockRecord,
    /// A spilled block's `coverage` minors; empty for an inline block.
    dense: &'a [u32],
    scheme: CounterScheme,
}

impl CounterBlock<'_> {
    /// The shared major counter (bumped on overflow / re-encryption).
    #[inline]
    pub fn major(&self) -> u64 {
        self.record.major
    }

    /// The minor counter of `slot`.
    #[inline]
    pub fn minor(&self, slot: usize) -> u32 {
        match (self.dense.get(slot), self.record.locate(slot)) {
            (Some(&m), _) => m,
            (None, (true, rank)) => self.record.packed(rank),
            (None, (false, _)) => 0,
        }
    }

    /// All `coverage` minor counters, zeros included, in slot order.
    pub fn minors(&self) -> Vec<u32> {
        (0..self.scheme.coverage() as usize)
            .map(|slot| self.minor(slot))
            .collect()
    }

    /// The block's MorphCtr format: the narrowest that holds its minors
    /// (always `Uniform` under the other schemes, which have none).
    pub fn format(&self) -> MorphFormat {
        match self.scheme {
            CounterScheme::MorphCtr => format_of(self.record.nonzero(), self.record.width())
                .unwrap_or(MorphFormat::Uniform),
            _ => MorphFormat::Uniform,
        }
    }
}

/// Blocks are equal when their scheme, major and every minor are.
impl PartialEq for CounterBlock<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.scheme == other.scheme
            && self.record.major == other.record.major
            && self.record.nonzero_map == other.record.nonzero_map
            && (0..self.scheme.coverage() as usize).all(|s| self.minor(s) == other.minor(s))
    }
}

/// The data lines of one counter block, as an iterator: what an overflow
/// re-encrypts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineRange {
    next: u64,
    end: u64,
}

impl LineRange {
    /// The `count` lines from `first` on.
    pub const fn new(first: u64, count: u64) -> Self {
        Self {
            next: first,
            end: first + count,
        }
    }
}

impl Iterator for LineRange {
    type Item = LineAddr;

    #[inline]
    fn next(&mut self) -> Option<LineAddr> {
        if self.next == self.end {
            return None;
        }
        self.next += 1;
        Some(LineAddr::new(self.next - 1))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.end - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for LineRange {}

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
        /// Data lines requiring re-encryption: the block's coverage.
        reencrypt: LineRange,
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

/// Records a page's array grows by when full: a page holds at most this
/// many slots it does not use.
const PAGE_GROWTH: usize = 8;

/// The materialized blocks among [`PAGE_BLOCKS`] consecutive ones.
#[derive(Clone, Debug)]
struct Page {
    /// Bit `i` is set iff block `i` of the page is materialized.
    present: u64,
    /// The materialized blocks in ascending index order: block `i` is
    /// `blocks[popcount(present below i)]`.
    blocks: Vec<BlockRecord>,
}

impl Page {
    /// Materializes block `i` as `blocks[rank]`, zeroed.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, i: usize, rank: usize) {
        if self.blocks.len() == self.blocks.capacity() {
            self.blocks.reserve_exact(PAGE_GROWTH);
        }
        self.blocks.insert(rank, BlockRecord::default());
        self.present |= 1 << i;
    }
}

/// The counter blocks, indexed by block number: a directory over the
/// pages, which are allocated when one of their blocks is first touched.
/// Iteration is in ascending block order.
#[derive(Clone, Debug, Default)]
struct CounterTable {
    /// Page number → 1 + the page's index in `pages`, or 0 while none of
    /// its blocks is materialized. Grows to the highest page touched.
    directory: Vec<u32>,
    /// The pages, in the order they were first touched.
    pages: Vec<Page>,
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
    /// Page `p`, if one of its blocks is materialized.
    #[inline]
    fn page(&self, p: usize) -> Option<&Page> {
        match self.directory.get(p) {
            Some(&handle) if handle != 0 => Some(&self.pages[handle as usize - 1]),
            _ => None,
        }
    }

    /// The materialized block `idx`, if any.
    #[inline]
    fn get(&self, idx: u64) -> Option<&BlockRecord> {
        let (p, i) = page_of(idx);
        let page = self.page(p)?;
        let rank = (page.present & ((1 << i) - 1)).count_ones() as usize;
        (page.present >> i & 1 == 1).then(|| &page.blocks[rank])
    }

    /// Block `idx`, materialized (as a block of zero minors, allocating its
    /// page) if it was not.
    #[inline]
    fn entry(&mut self, idx: u64) -> &mut BlockRecord {
        let (p, i) = page_of(idx);
        let handle = match self.directory.get(p) {
            Some(&handle) if handle != 0 => handle,
            _ => self.add_page(p),
        };
        let page = &mut self.pages[handle as usize - 1];
        let rank = (page.present & ((1 << i) - 1)).count_ones() as usize;
        if page.present >> i & 1 == 0 {
            page.materialize(i, rank);
        }
        &mut page.blocks[rank]
    }

    /// Allocates page `p` and returns its handle, extending the directory
    /// to it: on the first touch of a page only.
    #[cold]
    #[inline(never)]
    fn add_page(&mut self, p: usize) -> u32 {
        if p >= self.directory.len() {
            self.directory.resize(p + 1, 0);
        }
        self.pages.push(Page {
            present: 0,
            blocks: Vec::with_capacity(PAGE_GROWTH),
        });
        let handle = self.pages.len() as u32;
        self.directory[p] = handle;
        handle
    }

    /// Every materialized block in ascending index order.
    fn iter(&self) -> impl Iterator<Item = (u64, &BlockRecord)> + '_ {
        (0..self.directory.len())
            .filter_map(|p| Some((p, self.page(p)?)))
            .flat_map(|(p, page)| {
                let present = [page.present, 0];
                set_bits(present)
                    .zip(&page.blocks)
                    .map(move |(i, block)| ((p * PAGE_BLOCKS + i) as u64, block))
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
    spills: Spills,
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
            spills: Spills::default(),
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

    /// The heap blocks the store holds: one per page, and one for each of
    /// its page directory, page list, spill arena and spill free list once
    /// that first holds an entry. Each is one allocation when it appears;
    /// the store makes no other (a growing list reallocates its block).
    pub fn heap_blocks(&self) -> usize {
        let lists = [
            self.table.directory.capacity(),
            self.table.pages.capacity(),
            self.spills.dense.capacity(),
            self.spills.free.capacity(),
        ];
        self.table.pages.len() + lists.iter().filter(|&&c| c > 0).count()
    }

    /// Blocks the store can hold: those of the data lines below
    /// [`LineAddr::DATA_LIMIT`].
    fn block_limit(&self) -> u64 {
        LineAddr::DATA_LIMIT.div_ceil(self.scheme.coverage())
    }

    /// The largest minor of the scheme (an increment past it overflows).
    const fn minor_cap(&self) -> u32 {
        match self.scheme {
            CounterScheme::Monolithic => (1 << 20) - 1,
            CounterScheme::Split => (1 << 7) - 1,
            CounterScheme::MorphCtr => MorphFormat::Zcc {
                max_nonzero: 8,
                width: 20,
            }
            .max_minor() as u32,
        }
    }

    /// The view of a stored block.
    fn view<'a>(&'a self, record: &BlockRecord) -> CounterBlock<'a> {
        let coverage = self.scheme.coverage() as usize;
        CounterBlock {
            record: *record,
            dense: match record.spill() {
                Some(at) => self.spills.minors(at, coverage),
                None => &[],
            },
            scheme: self.scheme,
        }
    }

    /// The effective counter value of `line` (what goes into the OTP seed):
    /// `major << 20 | minor`. Minors are capped below 2^20 by every scheme.
    pub fn value(&self, line: LineAddr) -> u64 {
        let block_idx = self.scheme.block_of(line);
        let slot = self.scheme.slot_of(line);
        match self.table.get(block_idx) {
            Some(b) => (b.major << 20) | self.view(b).minor(slot) as u64,
            None => 0,
        }
    }

    /// Iterates over every materialized block in ascending index order
    /// (untouched blocks are implicit zeros and not yielded). Used to prime
    /// shadow models from a restored store.
    pub fn materialized_blocks(&self) -> impl Iterator<Item = (u64, CounterBlock<'_>)> + '_ {
        self.table.iter().map(|(idx, b)| (idx, self.view(b)))
    }

    /// Reads the whole block covering `line` (zeros if untouched).
    pub fn block(&self, line: LineAddr) -> CounterBlock<'_> {
        let block_idx = self.scheme.block_of(line);
        self.view(self.table.get(block_idx).unwrap_or(&BlockRecord::default()))
    }

    /// Increments the counter of `line` (a memory write), handling morphing
    /// and overflow per the scheme.
    pub fn increment(&mut self, line: LineAddr) -> IncrementOutcome {
        self.increments += 1;
        let scheme = self.scheme;
        let coverage = scheme.coverage() as usize;
        let block_idx = scheme.block_of(line);
        debug_assert!(
            block_idx < self.block_limit(),
            "line {:#x} is past the data lines",
            line.index()
        );
        let slot = scheme.slot_of(line);
        let cap = self.minor_cap();
        let block = self.table.entry(block_idx);
        let before = (block.nonzero(), block.width());
        if !self.spills.bump(block, slot, cap, coverage) {
            return self.overflow(block_idx);
        }
        if scheme != CounterScheme::MorphCtr {
            return IncrementOutcome::Ok;
        }
        let after = (block.nonzero(), block.width());
        if after == before {
            return IncrementOutcome::Ok;
        }
        match format_of(after.0, after.1) {
            Some(f) if Some(f) == format_of(before.0, before.1) => IncrementOutcome::Ok,
            Some(f) => {
                self.morphs += 1;
                IncrementOutcome::Morphed { to: f }
            }
            None => self.overflow(block_idx),
        }
    }

    /// Every materialized block in ascending index order, minors dense.
    fn saved_blocks(&self) -> Vec<SavedBlock> {
        self.materialized_blocks()
            .map(|(idx, b)| SavedBlock {
                idx,
                major: b.major(),
                minors: b.minors(),
            })
            .collect()
    }

    /// Rebuilds the blocks from their saved minors, rejecting minors no
    /// MorphCtr format fits (under MorphCtr), blocks past
    /// [`Self::block_limit`] and blocks saved twice.
    fn restore_blocks(&mut self, v: &Value) -> LoadResult {
        let coverage = self.scheme.coverage();
        let minors = vec![0; coverage as usize];
        let proto = SavedBlock {
            minors,
            ..Default::default()
        };
        let limit = self.block_limit();
        self.table = CounterTable::default();
        self.spills = Spills::default();
        for SavedBlock { idx, major, minors } in state::seq(v, &proto)? {
            if idx >= limit {
                return Err(format!(
                    "block {idx}: past the last block {} of the data lines",
                    limit - 1
                ));
            }
            if self.scheme == CounterScheme::MorphCtr && MorphFormat::choose(&minors).is_none() {
                return Err(format!("block {idx}: minors fit no MorphCtr format"));
            }
            if self.table.get(idx).is_some() {
                return Err(format!("block {idx}: duplicated in snapshot"));
            }
            let block = self.table.entry(idx);
            block.major = major;
            self.spills.load(block, &minors);
        }
        Ok(())
    }

    fn overflow(&mut self, block_idx: u64) -> IncrementOutcome {
        self.overflows += 1;
        let coverage = self.scheme.coverage();
        let block = self.table.entry(block_idx);
        block.major += 1;
        self.spills.clear(block, coverage as usize);
        IncrementOutcome::Overflow {
            reencrypt: LineRange::new(block_idx * coverage, coverage),
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
        use super::super::{CounterScheme, IncrementOutcome, LineRange, MorphFormat};
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
                IncrementOutcome::Overflow {
                    reencrypt: LineRange::new(block_idx * coverage, coverage),
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

    /// `store` saved and restored into a fresh store, which must save the
    /// same bytes and hold the same blocks.
    fn round_trip(store: &CounterStore) -> Result<CounterStore, String> {
        let scheme = store.scheme();
        let saved = store.save_state();
        let mut restored = CounterStore::new(scheme);
        restored.load_state(&saved)?;
        if restored.save_state().to_string() != saved.to_string() {
            return Err(format!("{scheme}: restored store saves other bytes"));
        }
        if !restored
            .materialized_blocks()
            .eq(store.materialized_blocks())
        {
            return Err(format!("{scheme}: restored store holds other blocks"));
        }
        Ok(restored)
    }

    /// Runs `writes` (line, repeats) on both stores, comparing every
    /// outcome and value, then the event counts and snapshots. Half-way
    /// through, the store is replaced by its snapshot round trip, so the
    /// second half runs on restored blocks.
    fn check_against_reference(
        scheme: CounterScheme,
        writes: &[(u64, usize)],
    ) -> Result<(), String> {
        let mut store = CounterStore::new(scheme);
        let mut dense = reference::DenseStore::new(scheme);
        for (i, &(line, repeats)) in writes.iter().enumerate() {
            if i == writes.len() / 2 {
                store = round_trip(&store)?;
            }
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
        round_trip(&store).map(drop)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A third of the writes land in 400 lines (morphs and overflows),
        /// a sixth spread over 2^20 lines (many table pages) and a sixth
        /// over 2^26 lines (far-apart blocks; the table's directory grows
        /// to the highest page, which `golden_counters.rs` takes to the
        /// last block). The last third crowd many slots of one block so
        /// its minors outgrow the inline word: a sixth touch 136 lines a
        /// few times each (more non-zero minors than the word holds, then
        /// a MorphCtr overflow of the spilled block) and a sixth repeat
        /// 16 lines (minors widening past the word, eight Monolithic ones
        /// in a block, Split overflows of spilled blocks). The snapshot
        /// round trips half-way and at the end restore spilled blocks.
        fn compressed_store_matches_dense_reference(
            writes in prop::collection::vec((0u8..6, 0u64..1 << 26, 1usize..140), 1..160),
        ) {
            let writes: Vec<(u64, usize)> = writes
                .iter()
                .map(|&(kind, line, repeats)| match kind {
                    0 | 1 => (line % 400, repeats),
                    2 => (line % (1 << 20), repeats),
                    3 => (line, repeats),
                    4 => (line % 136, 1 + repeats % 4),
                    _ => (line % 16, repeats),
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
        // Eight minors of 8 bits outgrow the inline word, so the block is
        // spilled when it is saved half-way and when line 3's minor
        // overflows; the block then spills again into the freed array.
        let spread = (0..8).map(|line| (line, 200));
        let writes: Vec<_> = spread.clone().chain([(3, 1 << 20)]).chain(spread).collect();
        check_against_reference(CounterScheme::Monolithic, &writes).unwrap();
    }

    #[test]
    fn fully_nonzero_block_holds_no_more_than_dense_minors() {
        for scheme in SCHEMES {
            let coverage = scheme.coverage();
            let mut s = CounterStore::new(scheme);
            for line in 0..coverage {
                s.increment(LineAddr::new(line));
            }
            let b = s.table.get(0).expect("block 0 was written");
            assert_eq!(u64::from(b.nonzero()), coverage, "{scheme}");
            // Eight 1-bit minors fit the word; 64 and 128 spill.
            assert_eq!(b.spill().is_some(), coverage > 8, "{scheme}");
            assert!(
                s.spills.dense.capacity() as u64 <= coverage,
                "{scheme}: {} spilled minors for coverage {coverage}",
                s.spills.dense.capacity()
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
        assert_eq!(b.major(), 1);
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
            assert_eq!((b.record.nonzero(), b.record.width()), (nz, bit_len(max)));
            assert_eq!(Some(b.format()), MorphFormat::choose(&minors));
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
            assert!(
                restored
                    .materialized_blocks()
                    .eq(live.materialized_blocks()),
                "{scheme}"
            );
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
