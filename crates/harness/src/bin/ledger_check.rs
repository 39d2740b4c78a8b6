//! `ledger_check` — diff two run-ledger files row by row.
//!
//! ```text
//! ledger_check A.jsonl B.jsonl [--strict]
//! ```
//!
//! Both files are `repro --ledger` output (see `ps_harness::ledger`), or
//! the committed pin file `crates/harness/pins.jsonl`. Rows are matched
//! by `(cmd, seed)`, and every difference is printed: a row or a metric
//! present in one file only, a config digest that differs (not the same
//! experiment), a metric that drifted. Same seed, same config: same
//! counts and the same digest of every exact artefact, so any drift is a
//! real behavioural change. `profile` rows embed the profiler's host
//! timings; that summary is not compared.
//!
//! By default the diff is informational (always exits 0). `--strict`
//! exits 1 on any difference — CI checks a fresh ledger of every
//! `--quick` run against the pin file with it.

use ps_harness::ledger::{diff, read};
use std::process::ExitCode;

/// The report lines for two ledger bodies, and whether they agree.
fn check(a_body: &str, b_body: &str, a_name: &str, b_name: &str) -> (Vec<String>, bool) {
    let (a, b) = (read(a_body), read(b_body));
    let mut lines: Vec<String> =
        diff(&a, &b, a_name, b_name).into_iter().map(|d| format!("ledger_check: {d}")).collect();
    let agree = lines.is_empty() && !a.is_empty();
    lines.push(match (a.is_empty(), lines.len()) {
        (true, _) => format!("ledger_check: no rows in {a_name}"),
        (false, 0) => format!("ledger_check: {} row(s) reproduce exactly", a.len()),
        (false, n) => format!("ledger_check: {n} difference(s)"),
    });
    (lines, agree)
}

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut strict = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict" => strict = true,
            "--help" | "-h" => {
                println!("usage: ledger_check A.jsonl B.jsonl [--strict]");
                return ExitCode::SUCCESS;
            }
            p => paths.push(p.to_owned()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("usage: ledger_check A.jsonl B.jsonl [--strict]");
        return ExitCode::from(2);
    };
    let read_file = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("cannot read {p}: {e}");
            None
        }
    };
    let (Some(a_body), Some(b_body)) = (read_file(a_path), read_file(b_path)) else {
        return ExitCode::from(2);
    };
    let (lines, agree) = check(&a_body, &b_body, a_path, b_path);
    for l in lines {
        println!("{l}");
    }
    if strict && !agree {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = r#"{"kind":"ps-ledger","v":2,"cmd":"monitor","seed":7,"config_fnv":42,"metrics":{"violations":0,"stdout_fnv":99}}"#;

    #[test]
    fn parses_a_ledger_row() {
        let r = read(ROW);
        let e = &r[&("monitor".to_owned(), 7)];
        assert_eq!(e.config_fnv, 42);
        assert_eq!(e.metrics, [("violations".to_owned(), 0), ("stdout_fnv".to_owned(), 99)]);
    }

    #[test]
    fn later_appends_win_and_foreign_lines_are_skipped() {
        let body =
            format!("not json\n{ROW}\n{}", ROW.replace("\"stdout_fnv\":99", "\"stdout_fnv\":100"));
        let r = read(&body);
        assert_eq!(r.len(), 1);
        assert_eq!(r[&("monitor".to_owned(), 7)].metrics[1].1, 100);
    }

    #[test]
    fn strict_fails_when_the_second_ledger_lacks_a_row_or_a_metric() {
        // A has monitor and chaos; B has only monitor, without its digest.
        let chaos = ROW.replace("monitor", "chaos");
        let a = format!("{ROW}\n{chaos}\n");
        let b = ROW.replace(",\"stdout_fnv\":99", "");
        let (lines, agree) = check(&a, &b, "A", "B");
        assert!(!agree, "{lines:?}");
        assert!(lines.iter().any(|l| l.ends_with("chaos seed 7: only in A")), "{lines:?}");
        assert!(lines.iter().any(|l| l.ends_with("monitor seed 7: stdout_fnv only in A")));
        assert!(check(&a, &a, "A", "A").1);
        assert!(!check("", "", "A", "B").1, "an empty ledger proves nothing");
    }
}
