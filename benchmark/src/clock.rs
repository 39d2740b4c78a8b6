//! Process CPU time.
//!
//! `/proc/self/stat` ticks every 10 ms — a tenth of what a two-second
//! loopback rep burns — so the process CPU clock is read through
//! `clock_gettime` instead, which the scheduler accounts in nanoseconds
//! and sums over all threads, exited ones included.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User + system CPU time this process has consumed, all threads, in
/// nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on this target, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = process_cpu_ns();
        let mut acc = 0u64;
        for i in 0..20_000_000u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
        let worked = process_cpu_ns() - t0;
        assert!(worked > 1_000_000, "busy loop burned only {worked} ns");
    }
}
