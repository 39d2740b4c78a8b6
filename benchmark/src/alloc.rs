//! The benchmark's counting allocator.
//!
//! Host time on a shared two-core host is noisy; allocator traffic is
//! not. Every call into the system allocator is counted here — calls,
//! bytes requested, live bytes and their peak — so each workload can
//! report exact per-multicast counts next to its clocks. The counters are
//! process-wide statistics that publish no other data, hence `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Delegates to [`System`] and counts every call.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the calls
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's layout is passed through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counters; subtract two to get what a region cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls (a `realloc` counts its new size).
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: usize,
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size and returns it, so
/// `peak() - baseline` is the heap one region added at its worst moment.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// Highest live size seen since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}
