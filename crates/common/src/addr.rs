//! Physical-address, cache-line, and page newtypes.
//!
//! The simulator manipulates three granularities of address constantly:
//! byte-granular physical addresses, 64 B cache-line indices, and 4 KiB page
//! indices. Newtypes keep them statically distinct (it is an easy and
//! catastrophic bug to index a cache with a byte address where a line index
//! was meant).

use core::fmt;

/// Size of a cache line in bytes (64 B throughout the paper).
pub const LINE_SIZE: usize = 64;
/// `log2(LINE_SIZE)`.
pub const LINE_SHIFT: u32 = 6;
/// Size of a page in bytes (4 KiB).
pub const PAGE_SIZE: usize = 4096;
/// `log2(PAGE_SIZE)`.
pub const PAGE_SHIFT: u32 = 12;

/// A byte-granular physical address.
///
/// # Examples
///
/// ```
/// use cosmos_common::PhysAddr;
/// let a = PhysAddr::new(0x40);
/// assert_eq!(a.line().index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        Self(addr)
    }

    /// Returns the raw byte address.
    #[inline]
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Returns the cache line containing this address.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Returns the page containing this address.
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> PAGE_SHIFT)
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0.wrapping_add(bytes))
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A cache-line index (a physical address divided by [`LINE_SIZE`]).
///
/// # Examples
///
/// ```
/// use cosmos_common::{LineAddr, PhysAddr};
/// let l = LineAddr::new(3);
/// assert_eq!(l.base(), PhysAddr::new(192));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Data lines lie below this index, 2^31 − 1 (128 GiB of data), so a
    /// data cache's `line << 1 | dirty` tag word fits a `u32` other than
    /// its empty word `u32::MAX`. Metadata lines (2^34 and above) are not
    /// data lines.
    pub const DATA_LIMIT: u64 = (1 << 31) - 1;

    /// Creates a line index directly.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the line index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of the line.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << LINE_SHIFT)
    }

    /// Returns the page containing this line.
    #[inline]
    pub const fn page(self) -> PageAddr {
        PageAddr(self.0 >> (PAGE_SHIFT - LINE_SHIFT))
    }

    /// Returns the line advanced by `n` lines (wrapping).
    #[inline]
    pub const fn offset(self, n: i64) -> Self {
        Self(self.0.wrapping_add(n as u64))
    }

    /// Absolute distance in lines between two line addresses.
    #[inline]
    pub const fn distance(self, other: LineAddr) -> u64 {
        self.0.abs_diff(other.0)
    }
}

impl From<u64> for LineAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// A page index (a physical address divided by [`PAGE_SIZE`]).
///
/// # Examples
///
/// ```
/// use cosmos_common::{PageAddr, PhysAddr};
/// assert_eq!(PhysAddr::new(0x1000).page(), PageAddr::new(1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageAddr(u64);

impl PageAddr {
    /// Creates a page index directly.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the page index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the first byte of the page.
    #[inline]
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// Returns the first line of the page.
    #[inline]
    pub const fn first_line(self) -> LineAddr {
        LineAddr(self.0 << (PAGE_SHIFT - LINE_SHIFT))
    }
}

impl From<u64> for PageAddr {
    fn from(v: u64) -> Self {
        Self(v)
    }
}

impl fmt::Debug for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageAddr({:#x})", self.0)
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_page_extraction() {
        let a = PhysAddr::new(0x1_2345);
        assert_eq!(a.line().index(), 0x1_2345 >> 6);
        assert_eq!(a.page().index(), 0x1_2345 >> 12);
    }

    #[test]
    fn line_base_is_aligned() {
        for i in [0u64, 1, 7, 12345, u64::MAX >> LINE_SHIFT] {
            let l = LineAddr::new(i);
            assert_eq!(l.base().value() % LINE_SIZE as u64, 0);
            assert_eq!(l.base().line(), l);
        }
    }

    #[test]
    fn page_contains_its_lines() {
        let p = PageAddr::new(17);
        let lines_per_page = (PAGE_SIZE / LINE_SIZE) as u64;
        for i in 0..lines_per_page {
            assert_eq!(p.first_line().offset(i as i64).page(), p);
        }
        assert_ne!(p.first_line().offset(lines_per_page as i64).page(), p);
    }

    #[test]
    fn line_distance_is_symmetric() {
        let a = LineAddr::new(100);
        let b = LineAddr::new(164);
        assert_eq!(a.distance(b), 64);
        assert_eq!(b.distance(a), 64);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn offset_wraps_negative() {
        let a = LineAddr::new(10);
        assert_eq!(a.offset(-3).index(), 7);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(PhysAddr::new(255).to_string(), "0xff");
        assert_eq!(format!("{:?}", LineAddr::new(16)), "LineAddr(0x10)");
    }
}
