//! The measuring loop: warm up, then reps of every chosen workload
//! interleaved round-robin — so slow drift of the host lands on every
//! workload alike — until the time budget is spent.

use crate::drives;
use crate::metrics::{end_to_end_rows, per_layer_of_rep, prof_shares, Row, END_TO_END, PER_LAYER};
use crate::reference;
use crate::spans::Tracer;
use crate::stats::median;
use crate::workloads::{run_rep, Rep, RepOpts, Scale, Wire, Workload};
use ps_prof::Profiler;
use std::collections::BTreeMap;
use std::time::Instant;

/// How long to measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Keep starting rounds until this many seconds per workload have
    /// passed since the first measured rep began.
    Seconds(f64),
    /// Exactly this many rounds.
    Reps(usize),
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workloads, interleaved in this order.
    pub workloads: Vec<&'static Workload>,
    /// Seed of every schedule and every simulated run.
    pub seed: u64,
    /// Traffic per rep.
    pub scale: Scale,
    /// When to stop.
    pub budget: Budget,
    /// Also run the layer drives and, each round, a second rep of every
    /// workload with spans and the engine profiler on.
    pub traced: bool,
}

/// What one workload yielded.
#[derive(Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: &'static Workload,
    /// Untraced reps — the only source of end-to-end metrics.
    pub reps: Vec<Rep>,
    /// Reps run with spans and the profiler attached.
    pub traced: Vec<Rep>,
    /// `ps-prof` self shares, one set per traced rep.
    pub prof: Vec<Vec<(&'static str, f64)>>,
    /// Reps (of one seed) whose exact metrics differed from the first's.
    pub nondeterministic: u64,
}

impl WorkloadResult {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.reps.iter().chain(&self.traced)
    }

    /// Deliveries called for, over all reps.
    pub fn attempted(&self) -> u64 {
        self.all().map(|r| r.verdict.attempted).sum::<u64>().max(1)
    }

    /// Everything that went wrong, over all reps.
    pub fn failed(&self) -> u64 {
        self.all().map(|r| r.verdict.failed).sum::<u64>() + self.nondeterministic
    }

    /// Failure kinds seen, deduplicated.
    pub fn reasons(&self) -> Vec<String> {
        let mut out: Vec<String> = self.all().flat_map(|r| r.verdict.reasons.clone()).collect();
        if self.nondeterministic > 0 {
            out.push(format!(
                "reps of one seed disagree on exact metrics: {}",
                self.nondeterministic
            ));
        }
        out.sort();
        out.dedup();
        out
    }

    /// The end-to-end metrics (median and quartiles over untraced reps).
    pub fn end_to_end(&self) -> Vec<Row> {
        end_to_end_rows(self.workload, &self.reps)
    }
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    /// Per workload, in plan order.
    pub workloads: Vec<WorkloadResult>,
    /// Layer-drive metrics (empty unless traced).
    pub drives: Vec<(&'static str, f64)>,
    /// The spans of the traced reps and drives.
    pub tracer: Tracer,
}

impl RunResult {
    /// Every per-layer metric for one workload: drive numbers, medians of
    /// the reps' counters, profiler shares and the tracing overhead.
    /// Metrics that do not apply to the workload read 0.
    pub fn per_layer(&self, w: &WorkloadResult) -> Vec<(&'static str, &'static str, f64)> {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for rep in &w.reps {
            for (name, v) in per_layer_of_rep(w.workload, rep) {
                samples.entry(name).or_default().push(v);
            }
        }
        for shares in &w.prof {
            for &(name, v) in shares {
                samples.entry(name).or_default().push(v);
            }
        }
        let mut values: BTreeMap<&'static str, f64> =
            samples.iter().map(|(name, v)| (*name, median(v))).collect();
        values.extend(self.drives.iter().copied());
        let host = &END_TO_END[0];
        let cost = |reps: &[Rep]| median(&reps.iter().map(host.of).collect::<Vec<_>>());
        if !w.traced.is_empty() && !w.reps.is_empty() {
            values.insert("bench.trace_overhead_ratio", cost(&w.traced) / cost(&w.reps));
            values.insert("bench.span_coverage", self.tracer.min_root_coverage());
        }
        values.insert("bench.reps", w.reps.len() as f64);
        values.insert("bench.failed", w.failed() as f64);
        PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name,
                    m.unit,
                    values.get(m.name).copied().filter(|v| v.is_finite()).unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// Whether every rep of every workload was correct.
    pub fn correct(&self) -> bool {
        self.workloads.iter().all(|w| w.failed() == 0)
    }
}

/// Runs the plan.
pub fn run(plan: &Plan) -> RunResult {
    let mut tracer = Tracer::new(plan.traced);
    let drives = if plan.traced { drives::run_all(&mut tracer) } else { Vec::new() };

    // Let code pages, the allocator's arenas and lazy statics settle on a
    // short rep before anything is timed.
    let mut off = Tracer::new(false);
    for w in &plan.workloads {
        run_rep(w, plan.seed, Scale::QUICK, &RepOpts::default(), &mut off);
    }

    let mut results: Vec<WorkloadResult> = plan
        .workloads
        .iter()
        .map(|&workload| WorkloadResult {
            workload,
            reps: Vec::new(),
            traced: Vec::new(),
            prof: Vec::new(),
            nondeterministic: 0,
        })
        .collect();
    // The reference kernel runs between reps; each simulated rep is
    // corrected by the mean of the measurements on either side of it. A
    // loopback rep is not: its CPU time is kernel socket and wake-up work
    // spread thinly over seconds, which the reference neither resembles
    // nor brackets (corrected, its ten-run spread went from 5 % to 14 %).
    let mut reference_before = reference::measure();
    let mut with_reference = |mut rep: Rep, w: &Workload| {
        let after = reference::measure();
        if w.wire != Wire::UdpLoopback {
            rep.reference_ns = (reference_before + after) / 2.0;
        }
        reference_before = after;
        rep
    };
    let started = Instant::now();
    let mut round = 0;
    loop {
        for res in &mut results {
            let w = res.workload;
            let rep = run_rep(w, plan.seed, plan.scale, &RepOpts::default(), &mut off);
            res.reps.push(with_reference(rep, w));
            if plan.traced {
                // The engine's own profiler only exists on the simulator.
                let prof = matches!(w.wire, Wire::Simnet { .. }).then(Profiler::enabled);
                tracer.set_rep(w.name, round);
                let root = tracer.begin("workload.rep");
                let opts = RepOpts { prof: prof.clone(), stack: None };
                let rep = run_rep(w, plan.seed, plan.scale, &opts, &mut tracer);
                tracer.end(root);
                res.traced.push(with_reference(rep, w));
                if let Some(p) = prof {
                    res.prof.push(prof_shares(&p));
                }
            }
        }
        round += 1;
        let done = match plan.budget {
            Budget::Reps(n) => round >= n,
            Budget::Seconds(s) => {
                started.elapsed().as_secs_f64() >= s * plan.workloads.len() as f64
            }
        };
        if done {
            break;
        }
    }

    // One seed, one schedule: on the simulator every rep must reproduce
    // the first's counts and simulated times bit for bit.
    for res in &mut results {
        let first = res.reps[0].exact();
        res.nondeterministic = res.reps.iter().filter(|r| r.exact() != first).count() as u64;
    }
    RunResult { workloads: results, drives, tracer }
}
