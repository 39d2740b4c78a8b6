//! A fixed reference kernel that tells how fast the host is right now.
//!
//! This host is shared: for minutes at a time everything on it runs
//! 15–25 % slower, with no steal time to show for it, so raw host time
//! per multicast drifts by that much between two runs of the same binary
//! (measured: ten-run spreads of 2 % to 26 % on the same code). The
//! reference is a small event loop of the benchmark's own — a binary heap
//! of timestamps, a hash table, frame-sized allocations and copies, the
//! simulator's instruction mix — that never changes with the system
//! under test. It runs for ~30 ms between reps; a rep's host clocks are
//! scaled by how much slower than [`QUIET_NS`] the reference ran around
//! it. Over a five-minute series of identical reps that took the
//! window-to-window range of the per-run figure from 15 % (median of raw
//! times) to 4.5 %.

use crate::clock::process_cpu_ns;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;

/// CPU time of one reference pass on this class of host when nothing
/// interferes. It only fixes the unit: corrected microseconds are
/// microseconds at this speed.
pub const QUIET_NS: f64 = 9_400_000.0;

/// Passes per measurement.
const PASSES: u64 = 3;

fn pass(salt: u64) -> u64 {
    static PAYLOAD: [u8; 2048] = [0x5A; 2048];
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(2048);
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    let mut sum = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 100_000, i)));
        if heap.len() > 1024 {
            let Reverse((at, id)) = heap.pop().expect("non-empty");
            let len = 32 + (at % 1400) as usize;
            let mut frame = Vec::with_capacity(len + 16);
            frame.extend_from_slice(&id.to_le_bytes());
            frame.extend_from_slice(&PAYLOAD[..len]);
            if let Some(old) = table.insert(id % 512, frame) {
                sum += u64::from(old[0]) + old.len() as u64;
            }
        }
    }
    sum
}

/// Runs the reference and returns the CPU nanoseconds one pass took.
pub fn measure() -> f64 {
    let t = process_cpu_ns();
    for salt in 0..PASSES {
        black_box(pass(salt));
    }
    (process_cpu_ns() - t) as f64 / PASSES as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_the_same_work_every_time() {
        assert_eq!(pass(1), pass(1));
        assert_ne!(pass(1), pass(2));
        assert!(measure() > 0.0);
    }
}
