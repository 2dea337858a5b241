//! A counting global allocator for the allocation gates.
//!
//! The simulator crates forbid `unsafe`, so allocation accounting lives
//! here in bench-only code: `tests/allocs.rs` installs [`CountingAlloc`] as
//! its `#[global_allocator]` and reads the counter around measured regions
//! to prove the steady-state packet and epoch paths allocate nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The allocation counter read at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Heap allocations performed so far (reallocations count once).
    pub allocs: u64,
}

impl AllocSnapshot {
    /// Allocations performed between `earlier` and `self`.
    #[must_use]
    pub fn allocs_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.allocs - earlier.allocs
    }
}

/// Reads the current counter.
#[must_use]
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot { allocs: ALLOCS.load(Ordering::Relaxed) }
}

fn on_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// A [`System`]-backed allocator that counts allocations.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a plain atomic and
// the bookkeeping allocates nothing itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc();
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        // A grow or shrink counts as one allocation event.
        if !p.is_null() {
            on_alloc();
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install CountingAlloc, so drive the hook
    // directly.
    #[test]
    fn counter_tracks_allocs() {
        let before = snapshot();
        on_alloc();
        on_alloc();
        assert_eq!(snapshot().allocs_since(&before), 2);
    }
}
