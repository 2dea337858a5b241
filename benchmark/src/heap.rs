//! A counting wrapper around the system allocator: live heap bytes and
//! their high-water mark.
//!
//! Peak resident memory is not a usable memory figure for these jobs:
//! glibc's per-thread arenas retain freed memory in a timing-dependent way,
//! and with two worker threads the same `spec_families` seed peaked
//! anywhere between 60 and 85 MiB of RSS. Live heap bytes do not depend on
//! which arena served them.
//!
//! Each thread counts into its own cache-line-sized slot, so the worker
//! threads never contend on one counter. A thread sums the slots only when
//! its own count has grown by [`CHECK_BYTES`] since it last looked, so the
//! high-water mark can be low by less than that per live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

pub struct Counting;

const SLOTS: usize = 8;
const CHECK_BYTES: isize = 16 * 1024;

#[repr(align(64))]
struct Slot(AtomicIsize);

/// Net bytes allocated per slot. A block freed by another thread than the
/// one that allocated it moves bytes between slots; only the sum means
/// anything.
static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
    /// This thread's slot value when it last summed the slots.
    static CHECKED_AT: Cell<isize> = const { Cell::new(0) };
}

fn live() -> isize {
    LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

fn count(delta: isize) {
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    let now = LIVE[slot].0.fetch_add(delta, Ordering::Relaxed) + delta;
    let _ = CHECKED_AT.try_with(|at| {
        if now >= at.get() + CHECK_BYTES {
            PEAK.fetch_max(live(), Ordering::Relaxed);
            at.set(now);
        } else if now < at.get() - CHECK_BYTES {
            at.set(now);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters only record sizes
// and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from `System`
        // with the same `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts a new high-water mark at the current live heap.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// The live-heap high-water mark since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed).max(live()) as f64 / (1024.0 * 1024.0)
}
