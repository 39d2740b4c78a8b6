//! `ledger_check` — diff two run-ledger files row by row.
//!
//! ```text
//! ledger_check A.jsonl B.jsonl [--strict]
//! ```
//!
//! Both files are `repro --ledger` output (see `ps_harness::ledger`).
//! Rows are matched by `(cmd, seed)`; for every pair present in both
//! files the config digest and each metric are compared. Deterministic
//! subcommands must reproduce exactly — same config digest, same
//! metrics, same `output_fnv` — so any drift is a real behavioural
//! change (or a config change, which the digest calls out separately).
//! `profile` rows carry host timings; their structural metrics still
//! compare, the embedded nanosecond summary is ignored.
//!
//! By default the diff is informational (always exits 0, prints which
//! rows drifted). `--strict` exits 1 on any mismatch —
//! CI uses that for the two-run reproduce-the-ledger smoke.

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

/// The `"metrics":{…}` object of a ledger row as ordered `key → value`.
fn metrics(line: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(start) = line.find("\"metrics\":{") else { return out };
    let body = &line[start + "\"metrics\":{".len()..];
    let Some(end) = body.find('}') else { return out };
    for pair in body[..end].split(',').filter(|p| !p.is_empty()) {
        if let Some((k, v)) = pair.split_once(':') {
            if let Ok(v) = v.parse::<u64>() {
                out.insert(k.trim_matches('"').to_owned(), v);
            }
        }
    }
    out
}

/// `(cmd, seed) → (config_fnv, metrics)` for every ledger row in a body.
/// A repeated key keeps the *last* row (the most recent append wins).
type Rows = BTreeMap<(String, u64), (u64, BTreeMap<String, u64>)>;

fn rows(body: &str) -> Rows {
    let mut out = Rows::new();
    for line in body.lines().filter(|l| l.contains("\"kind\":\"ps-ledger\"")) {
        let (Some(cmd), Some(seed), Some(cfg)) =
            (str_field(line, "cmd"), u64_field(line, "seed"), u64_field(line, "config_fnv"))
        else {
            continue;
        };
        out.insert((cmd, seed), (cfg, metrics(line)));
    }
    out
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
    let read = |p: &str| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("cannot read {p}: {e}");
            None
        }
    };
    let (Some(a_body), Some(b_body)) = (read(a_path), read(b_path)) else {
        return ExitCode::from(2);
    };
    let (a, b) = (rows(&a_body), rows(&b_body));

    let mut compared = 0u32;
    let mut drifted = 0u32;
    for ((cmd, seed), (b_cfg, b_metrics)) in &b {
        let Some((a_cfg, a_metrics)) = a.get(&(cmd.clone(), *seed)) else {
            println!("ledger_check: {cmd} seed {seed}: only in {b_path}");
            continue;
        };
        compared += 1;
        if a_cfg != b_cfg {
            drifted += 1;
            println!("ledger_check: {cmd} seed {seed}: config digest differs ({a_cfg} vs {b_cfg}) — not the same experiment");
            continue;
        }
        let mut row_ok = true;
        for (k, bv) in b_metrics {
            match a_metrics.get(k) {
                Some(av) if av == bv => {}
                Some(av) => {
                    row_ok = false;
                    println!("ledger_check: {cmd} seed {seed}: {k} {av} -> {bv}  <-- drifted");
                }
                None => {
                    row_ok = false;
                    println!("ledger_check: {cmd} seed {seed}: {k} only in {b_path}");
                }
            }
        }
        if !row_ok {
            drifted += 1;
        }
    }
    if compared == 0 {
        println!("ledger_check: no common (cmd, seed) rows between {a_path} and {b_path}");
    } else if drifted > 0 {
        println!("ledger_check: {drifted}/{compared} row(s) drifted");
    } else {
        println!("ledger_check: {compared} row(s) reproduce exactly");
    }
    if strict && (drifted > 0 || compared == 0) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: &str = r#"{"kind":"ps-ledger","v":1,"cmd":"monitor","seed":7,"config_fnv":42,"metrics":{"violations":0,"output_fnv":99}}"#;

    #[test]
    fn parses_a_ledger_row() {
        let r = rows(ROW);
        let (cfg, m) = &r[&("monitor".to_owned(), 7)];
        assert_eq!(*cfg, 42);
        assert_eq!(m["violations"], 0);
        assert_eq!(m["output_fnv"], 99);
    }

    #[test]
    fn later_appends_win_and_foreign_lines_are_skipped() {
        let body =
            format!("not json\n{ROW}\n{}", ROW.replace("\"output_fnv\":99", "\"output_fnv\":100"));
        let r = rows(&body);
        assert_eq!(r.len(), 1);
        assert_eq!(r[&("monitor".to_owned(), 7)].1["output_fnv"], 100);
    }
}
