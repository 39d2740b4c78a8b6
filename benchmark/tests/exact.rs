//! Exactness: the counting allocator agrees with a hand count, and the
//! metrics called exact repeat bit for bit for a seed and move with it.
//!
//! One test function on purpose. The allocator's counters are
//! process-wide; with a single test in this binary nothing else — no
//! sibling test, no harness thread reporting a result — allocates while
//! the counts are taken.

use ps_benchmark::alloc;
use ps_benchmark::spans::Tracer;
use ps_benchmark::workloads::{run_rep, workload, Rep, RepOpts, Scale};
use ps_simnet::SimTime;

/// One simulated second (400 multicasts), quick even in a debug build.
const SMALL: Scale =
    Scale { sim_traffic: SimTime::from_secs(1), udp_traffic: SimTime::from_millis(400) };

fn rep(name: &str, seed: u64) -> Rep {
    let w = workload(name).expect("known workload");
    run_rep(w, seed, SMALL, &RepOpts::default(), &mut Tracer::new(false))
}

#[test]
fn counts_are_exact() {
    counting_allocator_matches_a_hand_count();
    exact_metrics_repeat_for_a_seed_and_move_with_it();
}

fn exact_metrics_repeat_for_a_seed_and_move_with_it() {
    for name in ["steady_small", "switch_storm", "lossy_ft"] {
        // A first rep lets lazily initialised state settle, as `run` does.
        rep(name, 5);
        let (a, b) = (rep(name, 5), rep(name, 5));
        assert_eq!(a.verdict.failed, 0, "{name}: {:?}", a.verdict.reasons);
        assert!(!a.exact().is_empty());
        for ((what, x), (_, y)) in a.exact().into_iter().zip(b.exact()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{name}: {what} differs between same-seed reps");
        }
        let other = rep(name, 6);
        assert_eq!(other.verdict.failed, 0, "{name}: {:?}", other.verdict.reasons);
        assert_ne!(a.exact(), other.exact(), "{name}: a new seed must give new inputs");
    }
}

fn counting_allocator_matches_a_hand_count() {
    let mut held: Vec<Vec<u8>> = Vec::with_capacity(100);
    let baseline = alloc::reset_peak();
    let before = alloc::snapshot();
    for _ in 0..100 {
        held.push(Vec::with_capacity(64));
    }
    let mid = alloc::snapshot();
    assert_eq!(mid.calls - before.calls, 100);
    assert_eq!(mid.bytes - before.bytes, 6400);
    assert_eq!(mid.live - before.live, 6400);
    assert_eq!(alloc::peak() - baseline, 6400);

    // Growing in place is one more call; it asks for the whole new size.
    held[0].extend_from_slice(&[7; 64]);
    held[0].reserve_exact(64);
    let grown = alloc::snapshot();
    assert_eq!(grown.calls - mid.calls, 1);
    assert_eq!(grown.bytes - mid.bytes, 128);
    assert_eq!(grown.live - mid.live, 64);

    drop(held);
    let after = alloc::snapshot();
    assert_eq!(after.live, before.live - 100 * std::mem::size_of::<Vec<u8>>());
    assert_eq!(after.calls, grown.calls, "freeing is not an allocator call");
    assert_eq!(alloc::peak() - baseline, 6400 + 64, "the peak outlives the memory");
}
