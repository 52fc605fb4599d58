//! Heap high-water mark of the benchmark process.
//!
//! A counting wrapper around the system allocator. Peak resident memory
//! of one workload fell into two modes, megabytes apart, across seeds.
//! The bytes a run has allocated depend only on what it simulates, so
//! the per-round high-water mark repeats exactly for a given seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The benchmark's global allocator.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// The benchmark allocates from one thread. A load followed by a store
// keeps the counters as cheap as plain integers; under concurrent
// allocation they would only lose counts, never corrupt memory.
fn grow(bytes: usize) {
    let live = LIVE.load(Relaxed) + bytes;
    LIVE.store(live, Relaxed);
    if live > PEAK.load(Relaxed) {
        PEAK.store(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.store(LIVE.load(Relaxed).saturating_sub(bytes), Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so the wrapper upholds the `GlobalAlloc` contract exactly as `System`
// does; the counters never touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract for `ptr`,
        // `layout` and `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

/// Bytes allocated and not yet freed.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark from the bytes live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Largest live byte count since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
