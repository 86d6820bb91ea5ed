//! Metadata address layout.
//!
//! Counter blocks, MAC lines, and Merkle-tree nodes are ordinary 64 B lines
//! in DRAM. The simulator routes accesses to them through the CTR cache,
//! the metadata cache, and the DRAM model — so each structure gets its own
//! region of physical address space, far above any data the workloads
//! touch:
//!
//! - counters at `CTR_BASE`    (1 << 34 lines, i.e. PA bit 40),
//! - MACs     at `MAC_BASE`    (PA bit 41),
//! - MT nodes at `MT_BASE`     (PA bit 42), one sub-region per level.

use crate::counters::CounterScheme;
use cosmos_common::LineAddr;

/// Line-index bases for metadata regions (chosen above any realistic data
/// footprint: data occupies line indices below 2^29 for a 32 GB region).
const CTR_BASE: u64 = 1 << 34;
const MAC_BASE: u64 = 1 << 35;
const MT_BASE: u64 = 1 << 36;
/// Each tree level gets a contiguous sub-region this many lines long.
const MT_LEVEL_STRIDE: u64 = 1 << 30;

/// MACs per 64 B line: eight 64-bit MACs.
pub const MACS_PER_LINE: u64 = 8;

/// Computes metadata line addresses for a given protected-memory size and
/// counter scheme.
///
/// # Examples
///
/// ```
/// use cosmos_secure::{MetadataLayout, CounterScheme};
/// use cosmos_common::LineAddr;
///
/// let layout = MetadataLayout::new(32 << 30, CounterScheme::MorphCtr);
/// let ctr_line = layout.ctr_line_of(LineAddr::new(500));
/// assert!(layout.is_metadata(ctr_line));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetadataLayout {
    scheme: CounterScheme,
    data_lines: u64,
    ctr_blocks: u64,
    mt_levels: u32,
    /// log2 of the tree arity: a node index is a leaf index shifted right
    /// by this once per level.
    mt_arity_log2: u32,
}

impl MetadataLayout {
    /// Default Merkle-tree arity (8-ary: eight 64-bit child hashes per 64 B
    /// node).
    pub const DEFAULT_ARITY: u64 = 8;

    /// log2 of [`Self::DEFAULT_ARITY`], which must be a power of two.
    const DEFAULT_ARITY_LOG2: u32 = {
        assert!(Self::DEFAULT_ARITY.is_power_of_two());
        Self::DEFAULT_ARITY.trailing_zeros()
    };

    /// Creates a layout for `data_bytes` of protected memory.
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero.
    pub fn new(data_bytes: u64, scheme: CounterScheme) -> Self {
        assert!(data_bytes > 0, "protected region must be non-empty");
        let data_lines = data_bytes.div_ceil(64);
        let ctr_blocks = data_lines.div_ceil(scheme.coverage());
        // Levels above the leaves: reduce by arity until one node remains.
        let mut levels = 0;
        let mut nodes = ctr_blocks;
        while nodes > 1 {
            nodes = nodes.div_ceil(Self::DEFAULT_ARITY);
            levels += 1;
        }
        Self {
            scheme,
            data_lines,
            ctr_blocks,
            mt_levels: levels,
            mt_arity_log2: Self::DEFAULT_ARITY_LOG2,
        }
    }

    /// The counter scheme.
    pub fn scheme(&self) -> CounterScheme {
        self.scheme
    }

    /// Number of data lines protected.
    pub fn data_lines(&self) -> u64 {
        self.data_lines
    }

    /// Number of counter blocks (Merkle leaves).
    pub fn ctr_blocks(&self) -> u64 {
        self.ctr_blocks
    }

    /// Merkle-tree levels *above* the counter blocks (the root is level
    /// `mt_levels`, stored on-chip and never fetched).
    pub fn mt_levels(&self) -> u32 {
        self.mt_levels
    }

    /// The counter-block line covering a data line.
    #[inline]
    pub fn ctr_line_of(&self, data_line: LineAddr) -> LineAddr {
        LineAddr::new(CTR_BASE + self.scheme.block_of(data_line))
    }

    /// The MAC line covering a data line (eight MACs per line).
    #[inline]
    pub fn mac_line_of(&self, data_line: LineAddr) -> LineAddr {
        LineAddr::new(MAC_BASE + data_line.index() / MACS_PER_LINE)
    }

    /// The Merkle node line at `level` (1-based above leaves) on the path of
    /// a counter block. Returns `None` at or above the root (which is
    /// on-chip).
    pub fn mt_node_line(&self, ctr_line: LineAddr, level: u32) -> Option<LineAddr> {
        if level == 0 || level >= self.mt_levels.max(1) {
            return None;
        }
        let leaf_index = ctr_line.index().checked_sub(CTR_BASE)?;
        // leaf / arity^level, as a shift (0 once the shift passes 63).
        let node_index = leaf_index
            .checked_shr(self.mt_arity_log2 * level)
            .unwrap_or(0);
        Some(LineAddr::new(
            MT_BASE + level as u64 * MT_LEVEL_STRIDE + node_index,
        ))
    }

    /// The full leaf-to-root path of DRAM-resident MT nodes for a counter
    /// line (excludes the on-chip root).
    pub fn mt_path(&self, ctr_line: LineAddr) -> Vec<LineAddr> {
        self.mt_path_iter(ctr_line).collect()
    }

    /// Allocation-free leaf-to-root walk of the DRAM-resident MT nodes for
    /// a counter line (excludes the on-chip root). Yields exactly the lines
    /// of [`MetadataLayout::mt_path`], shifting the node index right by
    /// log2 of the arity one level at a time instead of recomputing
    /// `arity^level`.
    #[inline]
    pub fn mt_path_iter(&self, ctr_line: LineAddr) -> MtPathIter {
        let leaf_index = ctr_line.index().wrapping_sub(CTR_BASE);
        MtPathIter {
            // A non-counter line (index below CTR_BASE) has no tree path;
            // mt_node_line returns None for it, so the iterator is empty.
            node_index: if ctr_line.index() >= CTR_BASE {
                leaf_index
            } else {
                0
            },
            levels: if ctr_line.index() >= CTR_BASE {
                self.mt_levels
            } else {
                0
            },
            arity_log2: self.mt_arity_log2,
            level: 0,
        }
    }

    /// Number of DRAM-resident tree nodes on a verification path.
    pub fn mt_path_len(&self) -> u32 {
        self.mt_levels.saturating_sub(1)
    }

    /// Whether a line lies in any metadata region.
    pub fn is_metadata(&self, line: LineAddr) -> bool {
        line.index() >= CTR_BASE
    }

    /// Whether a line is a counter line.
    pub fn is_ctr(&self, line: LineAddr) -> bool {
        (CTR_BASE..MAC_BASE).contains(&line.index())
    }

    /// Whether a line is a MAC line.
    pub fn is_mac(&self, line: LineAddr) -> bool {
        (MAC_BASE..MT_BASE).contains(&line.index())
    }

    /// Whether a line is a Merkle-tree node line.
    pub fn is_mt(&self, line: LineAddr) -> bool {
        line.index() >= MT_BASE
    }
}

/// Iterator over the DRAM-resident Merkle path of one counter line, from
/// the level-1 node up to (excluding) the on-chip root. Created by
/// [`MetadataLayout::mt_path_iter`]; performs no allocation, so it is safe
/// on the per-writeback hot path.
#[derive(Clone, Debug)]
pub struct MtPathIter {
    node_index: u64,
    levels: u32,
    arity_log2: u32,
    level: u32,
}

impl Iterator for MtPathIter {
    type Item = LineAddr;

    #[inline]
    fn next(&mut self) -> Option<LineAddr> {
        let next_level = self.level + 1;
        if next_level >= self.levels {
            return None;
        }
        self.level = next_level;
        // node(level) = leaf / arity^level; integer division composes, so
        // dividing the running index by the (power-of-two) arity once per
        // level, as a shift, is exact.
        self.node_index >>= self.arity_log2;
        Some(LineAddr::new(
            MT_BASE + self.level as u64 * MT_LEVEL_STRIDE + self.node_index,
        ))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.levels.saturating_sub(self.level + 1) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for MtPathIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> MetadataLayout {
        MetadataLayout::new(32 << 30, CounterScheme::MorphCtr)
    }

    #[test]
    fn paper_tree_depth() {
        // 32 GB / 64 B = 512 Mi lines; /128 = 4 Mi counter blocks;
        // log8(4Mi) = 7.33 -> 8 levels; ~22 *binary* levels in the paper's
        // log2 accounting. Our 8-ary tree: path of 7 DRAM nodes + root.
        let l = layout();
        assert_eq!(l.ctr_blocks(), (32u64 << 30) / 64 / 128);
        assert_eq!(l.mt_levels(), 8);
        assert_eq!(l.mt_path_len(), 7);
    }

    #[test]
    fn regions_are_disjoint() {
        let l = layout();
        let data = LineAddr::new(12345);
        let ctr = l.ctr_line_of(data);
        let mac = l.mac_line_of(data);
        assert!(l.is_ctr(ctr) && !l.is_mac(ctr) && !l.is_mt(ctr));
        assert!(l.is_mac(mac) && !l.is_ctr(mac) && !l.is_mt(mac));
        for node in l.mt_path(ctr) {
            assert!(l.is_mt(node), "{node:?} not in MT region");
        }
        assert!(!l.is_metadata(data));
    }

    #[test]
    fn ctr_mapping_shares_blocks() {
        let l = layout();
        assert_eq!(
            l.ctr_line_of(LineAddr::new(0)),
            l.ctr_line_of(LineAddr::new(127))
        );
        assert_ne!(
            l.ctr_line_of(LineAddr::new(0)),
            l.ctr_line_of(LineAddr::new(128))
        );
    }

    #[test]
    fn mac_mapping_is_one_to_eight() {
        let l = layout();
        assert_eq!(
            l.mac_line_of(LineAddr::new(0)),
            l.mac_line_of(LineAddr::new(7))
        );
        assert_ne!(
            l.mac_line_of(LineAddr::new(7)),
            l.mac_line_of(LineAddr::new(8))
        );
    }

    #[test]
    fn mt_path_converges() {
        let l = layout();
        let a = l.ctr_line_of(LineAddr::new(0));
        let b = l.ctr_line_of(LineAddr::new((32u64 << 30) / 64 - 1));
        let pa = l.mt_path(a);
        let pb = l.mt_path(b);
        assert_eq!(pa.len(), 7);
        assert_eq!(pb.len(), 7);
        // Opposite ends of the tree differ along the whole DRAM path (they
        // only meet at the on-chip root).
        assert_ne!(pa.first(), pb.first());
        // Nearby leaves share their upper path. Data line 1024 -> counter
        // block 8 -> a different level-1 node than block 0.
        let c = l.ctr_line_of(LineAddr::new(1024));
        let pc = l.mt_path(c);
        assert_eq!(pa.last(), pc.last());
        assert_ne!(pa.first(), pc.first());
    }

    #[test]
    fn path_iter_matches_node_line_formula() {
        // The incremental-divide iterator must reproduce mt_node_line's
        // arity^level formula exactly, across layouts and leaf positions.
        for (bytes, scheme) in [
            (32u64 << 30, CounterScheme::MorphCtr),
            (1 << 30, CounterScheme::Split),
            (1 << 20, CounterScheme::MorphCtr),
            (1 << 12, CounterScheme::Monolithic),
        ] {
            let l = MetadataLayout::new(bytes, scheme);
            for data in [0, 1, 127, 128, 4095, bytes / 64 - 1] {
                let ctr = l.ctr_line_of(LineAddr::new(data));
                let by_formula: Vec<_> = (1..l.mt_levels())
                    .filter_map(|lv| l.mt_node_line(ctr, lv))
                    .collect();
                let by_iter: Vec<_> = l.mt_path_iter(ctr).collect();
                assert_eq!(by_iter, by_formula, "bytes={bytes} data={data}");
                assert_eq!(l.mt_path_iter(ctr).len(), by_formula.len());
            }
            // Non-counter lines have no path.
            assert_eq!(l.mt_path_iter(LineAddr::new(7)).count(), 0);
        }
    }

    #[test]
    fn small_region_shallow_tree() {
        let l = MetadataLayout::new(1 << 20, CounterScheme::MorphCtr); // 1 MB
        assert_eq!(l.ctr_blocks(), 128);
        assert_eq!(l.mt_levels(), 3); // 128 -> 16 -> 2 -> 1
        assert_eq!(l.mt_path(l.ctr_line_of(LineAddr::new(0))).len(), 2);
    }

    #[test]
    fn mono_scheme_more_blocks() {
        let morph = MetadataLayout::new(1 << 30, CounterScheme::MorphCtr);
        let mono = MetadataLayout::new(1 << 30, CounterScheme::Monolithic);
        assert_eq!(mono.ctr_blocks(), morph.ctr_blocks() * 16);
        assert!(mono.mt_levels() > morph.mt_levels());
    }
}
