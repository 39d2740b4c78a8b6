//! A launched group's memory exists before its threads run: between
//! `UdpGroup::launch` returning and a `run_until` returning, node threads
//! that start, wait on their sockets and see nothing to do make no
//! allocator call — so what a run measures from launch on does not depend
//! on how soon the OS starts each thread.
//!
//! The counter is process-wide (the node threads are not the test's), so
//! this binary holds this one test.

use ps_net::{NetConfig, UdpGroup};
use ps_simnet::SimTime;
use ps_stack::{Driver, GroupSpec, Stack};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `alloc` + `alloc_zeroed` + `realloc` calls made by any thread.
static CALLS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers to `System` unchanged; the counting touches one atomic
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn an_idle_launched_group_allocates_nothing() {
    let spec = GroupSpec::new(4).seed(5).stack_factory(|_, _, _| Stack::new(vec![]));
    let mut group = UdpGroup::launch(spec, NetConfig::default());
    let before = CALLS.load(Relaxed);
    group.run_until(SimTime::from_millis(50));
    let during = CALLS.load(Relaxed) - before;
    let report = group.shutdown();
    assert_eq!(during, 0, "allocator calls while four idle node threads started and waited");
    assert_eq!(report.delivered_per_process, vec![0; 4]);
    assert_eq!(report.malformed_per_process, vec![0; 4]);
}
