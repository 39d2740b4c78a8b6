//! The counting allocator, counted: a thread sees only its own calls and
//! the process every thread's, a `realloc` asks for its new size, live
//! bytes follow this thread's frees, and the large cut is the type's own.

use ps_prof::alloc::{self, Counting};
use std::hint::black_box;
use std::sync::Barrier;
use std::thread;

#[global_allocator]
static ALLOC: Counting<64> = Counting;

#[test]
fn another_threads_calls_show_only_in_the_process_count() {
    // Spawning allocates here: read this thread's counts once the worker runs.
    let start = Barrier::new(2);
    thread::scope(|s| {
        let worker = s.spawn(|| {
            start.wait();
            let before = alloc::thread().calls;
            drop(black_box((0..100).map(Box::new).collect::<Vec<_>>()));
            alloc::thread().calls - before
        });
        let (mine, process) = (alloc::thread().calls, alloc::process_calls());
        start.wait();
        let calls = worker.join().unwrap();
        assert!(calls >= 100, "the worker counted {calls} calls for 100 boxes");
        assert_eq!(alloc::thread().calls, mine, "none of them on this thread");
        assert!(alloc::process_calls() - process >= calls, "all of them in the process");
    });
}

#[test]
fn a_realloc_asks_for_its_new_size_and_large_starts_at_the_cut() {
    let mut v: Vec<u8> = black_box(Vec::with_capacity(10));
    let before = alloc::thread();
    v.reserve_exact(40);
    let after = alloc::thread();
    let grown = (after.calls - before.calls, after.bytes - before.bytes, after.live - before.live);
    assert_eq!(grown, (1, 40, 30), "one call for the new size; live moved by new − old");

    drop(black_box([63, 64, 1000].map(Vec::<u8>::with_capacity)));
    let bufs = alloc::thread();
    assert_eq!((bufs.calls - after.calls, bufs.large - after.large), (3, 2), "64 B and up");
}

#[test]
fn freeing_another_threads_buffer_makes_live_negative() {
    let live = thread::spawn(|| {
        let buf = thread::spawn(|| black_box(vec![1u8; 500])).join().unwrap();
        let before = alloc::thread().live;
        drop(black_box(buf));
        assert_eq!(alloc::thread().live - before, -500);
        alloc::thread().live
    });
    assert!(live.join().unwrap() < 0, "a thread that frees more than it allocates");
}

#[test]
fn a_thread_local_destructor_may_allocate_while_its_thread_exits() {
    struct AllocatesOnDrop;
    impl Drop for AllocatesOnDrop {
        fn drop(&mut self) {
            drop(black_box(vec![0u8; 256]));
        }
    }
    thread_local! {
        static GUARD: AllocatesOnDrop = const { AllocatesOnDrop };
    }
    assert!(thread::spawn(|| GUARD.with(|_| ())).join().is_ok());
}
