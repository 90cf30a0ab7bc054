//! Counting global allocator: live heap bytes and their high-water mark.
//!
//! `mem_peak_mb` is the peak of live bytes minus the bytes the benchmark
//! itself parks in pre-built frame arenas ([`exclude`]), so the figure is
//! the program's heap, not the benchmark's input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};

/// The allocator `main` installs as `#[global_allocator]`.
pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static EXCLUDED: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(delta: isize) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live - EXCLUDED.load(Relaxed), Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Marks `bytes` about to be allocated as benchmark input, not program heap.
/// Call before the allocation so the peak never sees them.
pub fn exclude(bytes: usize) {
    EXCLUDED.fetch_add(bytes as isize, Relaxed);
}

/// Undoes [`exclude`]; call after the excluded allocation is freed.
pub fn include(bytes: usize) {
    EXCLUDED.fetch_sub(bytes as isize, Relaxed);
}

/// Peak program heap since start.
pub fn peak_bytes() -> isize {
    PEAK.load(Relaxed)
}
