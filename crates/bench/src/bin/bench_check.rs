//! `bench_check` — informational regression check of a fresh bench run
//! against a committed baseline.
//!
//! ```text
//! bench_check BASELINE.json FRESH.json [--threshold-pct N]
//! ```
//!
//! Both files are the `ps-bench` timing harness's JSON-lines output
//! (e.g. the committed `BENCH_engine.json` vs a `PS_BENCH_OUT` capture
//! from CI). Every `bench` name present in both files is compared by
//! `median_ns`; rows only one side has, and non-timing rows (no
//! `median_ns` field), are skipped.
//!
//! The check is **informational**: it always exits 0. CI runs benches at
//! 1 iteration on shared hardware, where a 10% swing is routine noise —
//! the point is a visible line in the CI log that says *which* rows
//! moved, so a real regression gets investigated (with proper iteration
//! counts) before the baseline is blindly refreshed. See
//! `OPTIMIZATION_LOG.md` for the refresh workflow.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extracts the string value of `"key":"…"` from a flat JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_owned())
}

/// Extracts the integer value of `"key":123` from a flat JSON line.
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `bench name → median_ns` for every timing row in a JSON-lines body.
fn medians(body: &str) -> BTreeMap<String, u64> {
    body.lines()
        .filter_map(|l| Some((str_field(l, "bench")?, u64_field(l, "median_ns")?)))
        .collect()
}

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut threshold_pct: i64 = 10;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold-pct" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold_pct = t,
                None => {
                    eprintln!("--threshold-pct needs an integer");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: bench_check BASELINE.json FRESH.json [--threshold-pct N]");
                return ExitCode::SUCCESS;
            }
            p => paths.push(p.to_owned()),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        eprintln!("usage: bench_check BASELINE.json FRESH.json [--threshold-pct N]");
        return ExitCode::from(2);
    };
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("cannot read {p}: {e}");
            None
        }
    };
    let (Some(base_body), Some(fresh_body)) = (read(baseline_path), read(fresh_path)) else {
        return ExitCode::from(2);
    };
    let (base, fresh) = (medians(&base_body), medians(&fresh_body));

    let mut compared = 0u32;
    let mut regressed = 0u32;
    for (name, &fresh_ns) in &fresh {
        let Some(&base_ns) = base.get(name) else { continue };
        compared += 1;
        // Signed percent delta of the fresh median vs the baseline.
        let delta_pct =
            (i128::from(fresh_ns) - i128::from(base_ns)) * 100 / i128::from(base_ns.max(1));
        let flag = if delta_pct > i128::from(threshold_pct) {
            regressed += 1;
            "  <-- slower than baseline"
        } else {
            ""
        };
        println!(
            "bench_check: {name}: median {base_ns} ns -> {fresh_ns} ns ({delta_pct:+}%){flag}"
        );
    }
    if compared == 0 {
        println!("bench_check: no common timing rows between {baseline_path} and {fresh_path}");
    } else if regressed > 0 {
        println!(
            "bench_check: {regressed}/{compared} row(s) >{threshold_pct}% over baseline \
             (informational: CI medians are 1-iteration samples; re-measure with real \
             iteration counts before refreshing the baseline)"
        );
    } else {
        println!("bench_check: {compared} row(s) within {threshold_pct}% of baseline");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = r#"{"group":"g","bench":"b_one","iters":3,"median_ns":1000,"max_ns":1200}"#;

    #[test]
    fn extracts_fields_from_a_json_line() {
        assert_eq!(str_field(ROW, "bench").as_deref(), Some("b_one"));
        assert_eq!(u64_field(ROW, "median_ns"), Some(1000));
        assert_eq!(u64_field(ROW, "missing"), None);
    }

    #[test]
    fn medians_skips_rows_without_timing() {
        let body = format!("{ROW}\n{{\"group\":\"host\",\"bench\":\"m\",\"nodes\":5}}");
        let m = medians(&body);
        assert_eq!(m.len(), 1);
        assert_eq!(m["b_one"], 1000);
    }
}
