//! Parallel execution of independent experiment points.
//!
//! Every experiment in this crate is a map over an independent parameter
//! grid: each (protocol × sender-count × seed) point builds its own `Sim`
//! from its own seed and shares nothing with its neighbours. That makes
//! the sweep embarrassingly parallel *without* giving up determinism:
//! workers race only over which point they grab next, while every point's
//! result is stored at its input index and merged in index order — so the
//! rendered tables are byte-identical to a serial run, whatever the
//! thread count or scheduling.
//!
//! Worker count comes from `PS_SWEEP_WORKERS` (0 or 1 forces serial), or
//! the machine's available parallelism by default.

use std::sync::Mutex;

/// A worker pool that maps a closure over experiment points in parallel,
/// returning results in input order.
///
/// # Examples
///
/// ```
/// use ps_harness::sweep::SweepRunner;
///
/// let squares = SweepRunner::new(4).run(vec![1u64, 2, 3], |_idx, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with an explicit worker count (0 and 1 both mean serial).
    pub fn new(workers: usize) -> Self {
        Self { workers: workers.max(1) }
    }

    /// A serial runner (the reference path parallel runs must match).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Number of worker threads this runner will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `inputs`, returning outputs in input order.
    ///
    /// `f` is called with the point's index and input; it must be
    /// self-contained (each experiment point owns its `Sim` and seed).
    /// With one worker this runs inline with no threads at all.
    pub fn run<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        if self.workers <= 1 || inputs.len() <= 1 {
            return inputs.into_iter().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let n = inputs.len();
        let jobs = Mutex::new(inputs.into_iter().enumerate());
        let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<O>>>());
        let threads = self.workers.min(n);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let Some((i, input)) = jobs.lock().unwrap_or_else(|e| e.into_inner()).next()
                    else {
                        return;
                    };
                    let out = f(i, input);
                    results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(out);
                });
            }
        });
        let results = results.into_inner().unwrap_or_else(|e| e.into_inner());
        results.into_iter().map(|o| o.expect("every sweep point ran exactly once")).collect()
    }
}

/// A runner sized from the environment: `PS_SWEEP_WORKERS` if set
/// (invalid values fall back to serial), otherwise one worker per
/// available CPU.
impl Default for SweepRunner {
    fn default() -> Self {
        let workers = match std::env::var("PS_SWEEP_WORKERS") {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(1),
            Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        };
        Self::new(workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_regardless_of_finish_order() {
        // Early indices sleep longest, so with real parallelism they
        // finish last — the output must still be in input order.
        let inputs: Vec<u64> = (0..32).collect();
        let out = SweepRunner::new(8).run(inputs.clone(), |_, x| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x * 10
        });
        assert_eq!(out, inputs.iter().map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize, x: u64| (i as u64) * 1_000 + x * x;
        let inputs: Vec<u64> = (0..50).collect();
        let serial = SweepRunner::serial().run(inputs.clone(), work);
        let parallel = SweepRunner::new(7).run(inputs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn index_is_passed_through() {
        let out = SweepRunner::new(3).run(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(SweepRunner::new(4).run(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(SweepRunner::new(4).run(vec![9], |i, x| (i, x)), vec![(0, 9)]);
    }
}
