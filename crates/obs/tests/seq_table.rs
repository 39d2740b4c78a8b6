//! The recorder mints per-node causal seqs from a table sized by the nodes
//! it has seen, not by the largest node id: a record at node `u32::MAX`
//! costs a map entry, where a table indexed by node id would ask for
//! 16 GiB.
//!
//! The byte counter is per thread, so the test counts only itself.

use ps_obs::{CauseId, ObsEvent, Recorder};
use ps_prof::alloc::{self, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn the_largest_node_ids_get_their_own_seqs_for_a_few_kilobytes() {
    let rec = Recorder::with_capacity(64);
    if !rec.is_enabled() {
        return; // `tap` feature off: nothing is recorded
    }
    let ev = ObsEvent::TimerFire { token: 1 };
    let before = alloc::thread().bytes;
    for seq in 1..=3 {
        for node in [u32::MAX, u32::MAX - 1] {
            assert_eq!(rec.record(0, node, ev), CauseId::new(node, seq));
        }
    }
    let grown = alloc::thread().bytes - before;
    assert!(grown < 4096, "two huge node ids cost {grown} bytes");
    // Small ids are counted as before, beside the huge ones.
    assert_eq!(rec.record(0, 0, ev), CauseId::new(0, 1));
    assert_eq!(rec.record(0, 1023, ev), CauseId::new(1023, 1));
    assert_eq!(rec.record(0, 1024, ev), CauseId::new(1024, 1));
    assert_eq!(rec.record(0, u32::MAX, ev), CauseId::new(u32::MAX, 4));
}
