//! Pins the simnet path through the group runtime to a pre-refactor
//! golden digest.
//!
//! The `Driver` abstraction (`ps_stack::driver`) was extracted from the
//! concrete `GroupSim` so the same `GroupSpec` can target real transports
//! (`ps-net`). This test freezes everything the extraction must not
//! perturb: the application-level trace, the delivery records, the
//! recorder's event stream (timestamps, nodes, causal seqs and parents),
//! and the sampler series of a fixed scenario. If the digest moves, the
//! refactor changed observable simulation behavior — that is a bug, not
//! a baseline refresh.

use ps_simnet::{PointToPoint, SimTime};
use ps_stack::{Driver, GroupSimBuilder, Stack};
use ps_trace::ProcessId;

/// FNV-1a, 64-bit — tiny, stable, and dependency-free.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The digest of the fixed scenario, produced before the Driver
/// extraction. Refreshing this value requires demonstrating the change
/// is intentional (see module docs).
const GOLDEN: u64 = 0x9774_5c67_5ee6_b5f6;

#[test]
fn simnet_path_matches_pre_refactor_golden() {
    let rec = ps_obs::Recorder::with_capacity(8192);
    let sampler = ps_obs::MetricsSampler::new(5_000);
    let mut b = GroupSimBuilder::new(3)
        .seed(0xD21E)
        .medium(Box::new(PointToPoint::new(SimTime::from_micros(200))))
        .recorder(rec.clone())
        .sampler(sampler.clone())
        .stack_factory(|_, _, _| Stack::new(vec![]));
    for i in 0..12u64 {
        b = b.send_at(
            SimTime::from_millis(1 + 3 * i),
            ProcessId((i % 3) as u16),
            format!("golden-{i}"),
        );
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_millis(100));

    let mut h = fnv1a(format!("{}", sim.app_trace()).as_bytes(), 0);
    for d in sim.deliveries() {
        h = fnv1a(format!("{:?}|{}|{}", d.msg, d.process, d.at).as_bytes(), h);
    }
    for e in rec.snapshot() {
        h = fnv1a(
            format!("{}|{}|{}|{:?}|{:?}", e.at_us, e.node, e.seq, e.parent, e.ev).as_bytes(),
            h,
        );
    }
    h = fnv1a(sampler.to_jsonl().as_bytes(), h);

    // With the `tap` feature off the recorder contributes nothing; the
    // golden is defined for the default (tap-on) configuration only.
    if !rec.is_enabled() {
        return;
    }
    assert_eq!(h, GOLDEN, "simnet golden digest moved: got {h:#018x}, pinned {GOLDEN:#018x}");
}
