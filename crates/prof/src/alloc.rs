//! The counting global allocator of the workspace's allocation tests.
//!
//! A test declares `#[global_allocator] static ALLOC: Counting = Counting;`
//! and reads [`thread`] before and after the region it measures: the
//! calling thread's own counts, so the tests of one binary can run side by
//! side. Work on threads the test does not own reads [`process_calls`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// A global allocator that forwards every call to [`System`] and counts it;
/// a call for `LARGE` bytes or more is also [`Counts::large`] (none is by default).
pub struct Counting<const LARGE: usize = { usize::MAX }>;

/// What one thread has asked of the allocator so far.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
    /// Those calls that asked for `LARGE` bytes or more.
    pub large: u64,
    /// Bytes allocated less bytes freed: below zero where a thread frees another's.
    pub live: i64,
}

thread_local! {
    static THREAD: Cell<Counts> =
        const { Cell::new(Counts { calls: 0, bytes: 0, large: 0, live: 0 }) };
}

/// Calls made by any thread.
static PROCESS_CALLS: AtomicU64 = AtomicU64::new(0);

/// This thread's counts so far.
pub fn thread() -> Counts {
    THREAD.with(Cell::get)
}

/// `alloc` + `alloc_zeroed` + `realloc` calls made by any thread so far.
pub fn process_calls() -> u64 {
    PROCESS_CALLS.load(Relaxed)
}

fn update(f: impl FnOnce(Counts) -> Counts) {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = THREAD.try_with(|cell| cell.update(f));
}

/// Counts one call that asks for `size` bytes in place of `freed`.
fn count<const LARGE: usize>(size: usize, freed: usize) {
    PROCESS_CALLS.fetch_add(1, Relaxed);
    update(|c| Counts {
        calls: c.calls + 1,
        bytes: c.bytes + size as u64,
        large: c.large + u64::from(size >= LARGE),
        live: c.live + size as i64 - freed as i64,
    });
}

// SAFETY: every method passes its arguments unchanged to `System`; the
// counting touches one atomic and one const-initialised thread-local cell
// and never allocates.
unsafe impl<const LARGE: usize> GlobalAlloc for Counting<LARGE> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count::<LARGE>(layout.size(), 0);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count::<LARGE>(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|c| Counts { live: c.live - layout.size() as i64, ..c });
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count::<LARGE>(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}
