//! Heap of a MorphCtr counter store, measured by a counting global
//! allocator.
//!
//! A store keeps each materialized block as a 32-byte record inside its
//! page, with the non-zero minors bit-packed into one word of the record,
//! so a block has no heap allocation of its own: a run allocates once per
//! page, plus the page directory and page list, plus the dense arrays of
//! the few blocks whose minors outgrow the word. The writes here are
//! spread like `secure_mcf`'s: about 40 blocks in each of 512 pages, one
//! to four small non-zero minors a block, and one block in 64 crowded
//! with 24 minors of 4 (which spill). The store's own count of its heap
//! blocks is checked against the allocations, through the first overflow
//! of a spilled block. This binary holds one test, so no other test
//! allocates while it runs.

use cosmos_common::{LineAddr, SplitMix64};
use cosmos_secure::{CounterScheme, CounterStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting live bytes and new allocations (a `realloc`
/// moves an allocation; it is not a new one).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn allocated(bytes: usize) {
        LIVE.fetch_add(bytes, Ordering::SeqCst);
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
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
            Self::allocated(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::allocated(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator, hence
        // `System`, returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is `System::realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_add(new_size, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn morphctr_blocks_take_no_heap_of_their_own() {
    const PAGES: u64 = 512;
    const PAGE_BLOCKS: u64 = 64;
    /// The record every block takes in its page.
    const RECORD: usize = 32;
    /// Per page: its entry in the page list (32 B, doubled by the list's
    /// growth), its directory entry and up to eight unused records.
    const PAGE_OVERHEAD: usize = 2 * 32 + 2 * 4 + 8 * RECORD;
    /// Per spilled block: 128 dense minors, doubled by the arena's growth.
    const SPILL: usize = 2 * 128 * 4;

    let scheme = CounterScheme::MorphCtr;
    let coverage = scheme.coverage();
    // Draw the writes first, so only the store allocates while counting.
    let mut rng = SplitMix64::new(20_261_016);
    let mut writes = Vec::new();
    let (mut blocks, mut spilled) = (0usize, 0usize);
    let mut crowded = None;
    for page in 0..PAGES {
        // Every third page, so the directory spans 1,536 pages.
        let first = page * 3 * PAGE_BLOCKS;
        for block in first..first + PAGE_BLOCKS {
            if rng.next_index(64) >= 40 {
                continue;
            }
            blocks += 1;
            let (minors, repeats) = if blocks % 64 == 0 {
                spilled += 1;
                crowded = Some(LineAddr::new(block * coverage));
                (24, 4)
            } else {
                (1 + rng.next_index(4), 1 + rng.next_index(2))
            };
            let mut slots: Vec<u64> = (0..coverage).collect();
            for i in 0..minors {
                let pick = i + rng.next_index(slots.len() - i);
                slots.swap(i, pick);
                for _ in 0..repeats {
                    writes.push(LineAddr::new(block * coverage + slots[i]));
                }
            }
        }
    }
    assert!((19_000..22_000).contains(&blocks), "{blocks} blocks");

    let live_before = LIVE.load(Ordering::SeqCst);
    let allocations_before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut store = CounterStore::new(scheme);
    for &line in &writes {
        store.increment(line);
    }
    let live = LIVE.load(Ordering::SeqCst) - live_before;
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations_before;

    assert_eq!(store.materialized_blocks().count(), blocks);
    assert_eq!((store.morphs(), store.overflows()), (0, 0));
    let pages = PAGES as usize;
    // The directory and the page list allocate once each; their growth
    // moves them.
    let allocation_bound = pages + 2 + spilled;
    assert!(
        allocations <= allocation_bound,
        "{allocations} allocations for {blocks} blocks in {pages} pages, {spilled} spilled; \
         bound pages + 2 + spilled = {allocation_bound}"
    );
    let live_bound = blocks * RECORD + pages * PAGE_OVERHEAD + spilled * SPILL;
    assert!(
        live <= live_bound,
        "{live} bytes live for {blocks} blocks in {pages} pages, {spilled} spilled; bound \
         {RECORD} B a block + {PAGE_OVERHEAD} B a page + {SPILL} B a spill = {live_bound}"
    );
    println!("{live} bytes in {allocations} allocations for {blocks} blocks");

    // The store counts the heap blocks it made, and still does when the
    // first overflow of a spilled block gives the free list its entry.
    assert_eq!(store.heap_blocks(), allocations);
    let line = crowded.expect("one block in 64 is crowded, and there are thousands");
    let allocations_before = ALLOCATIONS.load(Ordering::SeqCst);
    while store.overflows() == 0 {
        store.increment(line);
    }
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - allocations_before;
    assert_eq!(allocations, 1, "the free list's first entry");
    assert_eq!(store.heap_blocks(), pages + 2 + 1 + 1);
}
