//! Output: the one-line contract result, the human-readable tables, the
//! result files, and the A/A comparison of two result files.

use crate::run::{RunResult, WorkloadResult};
use std::fmt::Write as _;

/// A finite float in a form JSON accepts and Rust parses back bit-equal.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

/// The last line the contract asks for: end-to-end metrics of an
/// untraced run, per-layer metrics of a traced one.
pub fn contract_line(run: &RunResult, w: &WorkloadResult, traced: bool) -> String {
    let metrics: Vec<String> = if traced {
        run.per_layer(w)
            .iter()
            .map(|(name, unit, v)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*v))
            })
            .collect()
    } else {
        w.end_to_end()
            .iter()
            .map(|r| {
                let m = r.metric;
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(r.summary.median),
                    m.unit
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.failed() == 0,
        w.attempted(),
        w.failed(),
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, for people.
pub fn human(run: &RunResult, traced: bool) -> String {
    let mut out = String::new();
    for w in &run.workloads {
        let _ = writeln!(
            out,
            "\n== {} — {} reps, attempted {} deliveries, failed {} (failed_share {}) ==",
            w.workload.name,
            w.reps.len(),
            w.attempted(),
            w.failed(),
            num(w.failed() as f64 / w.attempted() as f64),
        );
        for reason in w.reasons() {
            let _ = writeln!(out, "   FAILED {reason}");
        }
        for r in w.end_to_end() {
            let s = r.summary;
            let _ = writeln!(
                out,
                "   {:<18} {:>14.4} {:<6} q1 {:>12.4}  q3 {:>12.4}  over {:>3} reps  bound {:>3.0}%{}",
                r.metric.name,
                s.median,
                r.metric.unit,
                s.q1,
                s.q3,
                s.n,
                100.0 * r.metric.bound,
                if r.exact { "  (exact for a seed)" } else { "" },
            );
        }
        if traced {
            let _ = writeln!(out, "   -- per layer --");
            for (name, unit, v) in run.per_layer(w) {
                let _ = writeln!(out, "   {name:<40} {v:>16.4} {unit}");
            }
        }
    }
    out
}

/// One line per (workload, end-to-end metric): the file `--compare` reads.
/// Columns: workload, metric, unit, median, q1, q3 (over reps), reps,
/// exact (0/1), bound, failed. Floats round-trip exactly.
pub fn results_tsv(run: &RunResult) -> String {
    let mut out = String::new();
    for w in &run.workloads {
        for r in w.end_to_end() {
            let s = r.summary;
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                w.workload.name,
                r.metric.name,
                r.metric.unit,
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n,
                u8::from(r.exact),
                num(r.metric.bound),
                w.failed(),
            );
        }
    }
    out
}

/// The same results, self-describing, for `benchmark/RESULTS.json`.
pub fn results_json(run: &RunResult, seed: u64, traced: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = format!("{{\n  \"nproc\": {nproc},\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (i, w) in run.workloads.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\n      \"reps\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": {{",
            w.workload.name,
            w.reps.len(),
            w.attempted(),
            w.failed()
        );
        let rows = w.end_to_end();
        for (j, r) in rows.iter().enumerate() {
            let s = r.summary;
            let _ = writeln!(
                out,
                "        \"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"bound\": {}, \"exact\": {}}}{}",
                r.metric.name,
                r.metric.unit,
                num(s.median),
                num(s.q1),
                num(s.q3),
                num(r.metric.bound),
                r.exact,
                if j + 1 < rows.len() { "," } else { "" },
            );
        }
        out.push_str("      }");
        if traced {
            out.push_str(",\n      \"per_layer\": {\n");
            let layers = run.per_layer(w);
            for (j, (name, unit, v)) in layers.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}{}",
                    num(*v),
                    if j + 1 < layers.len() { "," } else { "" },
                );
            }
            out.push_str("      }");
        }
        let _ = writeln!(out, "\n    }}{}", if i + 1 < run.workloads.len() { "," } else { "" });
    }
    out.push_str("  }\n}\n");
    out
}

/// One parsed line of a results file.
#[derive(Debug, Clone, PartialEq)]
struct Line {
    workload: String,
    metric: String,
    median: f64,
    exact: bool,
    bound: f64,
    failed: u64,
}

fn parse(tsv: &str) -> Result<Vec<Line>, String> {
    tsv.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("malformed results line: {line:?}");
            if f.len() != 10 {
                return Err(bad());
            }
            Ok(Line {
                workload: f[0].to_owned(),
                metric: f[1].to_owned(),
                median: f[3].parse().map_err(|_| bad())?,
                exact: f[7] == "1",
                bound: f[8].parse().map_err(|_| bad())?,
                failed: f[9].parse().map_err(|_| bad())?,
            })
        })
        .collect()
}

/// Compares two runs of the same code (`--aa`): per metric × workload both
/// medians, their ratio, and PASS/FAIL — exact metrics must be bit-equal,
/// the rest must agree within the metric's bound, and nothing may have
/// failed. Returns the table and whether everything passed.
pub fn compare(a_tsv: &str, b_tsv: &str) -> Result<(String, bool), String> {
    let (a, b) = (parse(a_tsv)?, parse(b_tsv)?);
    if a.len() != b.len() {
        return Err(format!("result files differ in length: {} vs {}", a.len(), b.len()));
    }
    let mut out = format!(
        "{:<14} {:<18} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "first", "second", "ratio"
    );
    let mut all_pass = true;
    for (x, y) in a.iter().zip(&b) {
        if (x.workload.as_str(), x.metric.as_str()) != (y.workload.as_str(), y.metric.as_str()) {
            return Err(format!(
                "result files disagree on row order at {}/{}",
                x.workload, x.metric
            ));
        }
        let ratio = if x.median == 0.0 { 1.0 } else { y.median / x.median };
        // All end-to-end metrics are lower-is-better; A/A has no "parent",
        // so a shift in either direction beyond the bound fails.
        let pass = x.failed == 0
            && y.failed == 0
            && if x.exact {
                x.median.to_bits() == y.median.to_bits()
            } else {
                (ratio - 1.0).abs() <= x.bound
            };
        all_pass &= pass;
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>16.4} {:>16.4} {:>9.4}  {}{}",
            x.workload,
            x.metric,
            x.median,
            y.median,
            ratio,
            if pass { "PASS" } else { "FAIL" },
            if x.exact { " (bit-equal required)" } else { "" },
        );
    }
    Ok((out, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: &str = "w\thost_us_per_msg\tus\t10.0\t9.0\t11.0\t20\t0\t0.25\t0\n\
                     w\tallocs_per_msg\tcount\t205.5\t205.5\t205.5\t20\t1\t0.02\t0\n";

    #[test]
    fn compare_passes_within_bound_and_fails_outside() {
        let within = A.replace("10.0", "12.0");
        let (table, pass) = compare(A, &within).unwrap();
        assert!(pass, "{table}");
        let outside = A.replace("10.0", "13.0");
        let (table, pass) = compare(A, &outside).unwrap();
        assert!(!pass && table.contains("FAIL"), "{table}");
    }

    #[test]
    fn compare_demands_bit_equality_of_exact_metrics_and_no_failures() {
        let nudged = A.replace("count\t205.5", "count\t205.50000000001");
        assert!(!compare(A, &nudged).unwrap().1);
        let failed = A.replace("\t0\n", "\t3\n");
        assert!(!compare(A, &failed).unwrap().1);
        assert!(compare(A, "garbage").is_err());
    }
}
