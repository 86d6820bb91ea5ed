//! Peak heap of a graph build, measured by a counting global allocator.
//!
//! `Graph::generate_with` draws the edge stream in two halves, sorts each
//! into its own CSR and merges them, so the whole 8-byte-per-edge edge
//! list never exists: the build peaks at 8E + 12V bytes (E edges, V
//! vertices) where a single edge list beside the CSR needs 12E + 4V.
//! This binary holds one test, so no other test allocates while it runs.

use cosmos_workloads::graph::{Graph, GraphKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrank(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counters
// are only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, hence
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as if both blocks were live during the move: an upper
        // bound on what the move holds.
        Self::grew(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System::realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        Self::shrank(if new.is_null() {
            new_size
        } else {
            layout.size()
        });
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn rmat_build_peaks_below_two_halves_bound() {
    const V: usize = 1 << 16;
    const DEGREE: usize = 12;
    const E: usize = V * DEGREE;
    const SLACK: usize = 64 << 10;

    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let g = Graph::generate(GraphKind::Rmat, V, DEGREE, 1);
    let peak = PEAK.load(Ordering::SeqCst) - start;
    let kept = LIVE.load(Ordering::SeqCst) - start;
    assert_eq!(g.num_edges(), E);

    // The finished CSR is live, so the counter saw the build at all.
    let csr = 4 * E + 4 * (V + 1);
    assert!(
        kept >= csr,
        "{kept} bytes live after the build, CSR is {csr}"
    );
    let bound = 8 * E + 12 * V + SLACK;
    assert!(
        peak <= bound,
        "RMAT 2^16 x {DEGREE} build peaked {peak} bytes above its start, bound 8E + 12V + 64 KiB = {bound}"
    );
}
