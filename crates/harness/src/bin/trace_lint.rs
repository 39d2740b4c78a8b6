//! `trace_lint` — validate exported trace files without any network or
//! external tooling.
//!
//! ```text
//! trace_lint FILE...            # each FILE is JSON-lines: every line must parse
//! trace_lint --chrome FILE...   # each FILE is one Chrome trace_event JSON document
//! ```
//!
//! Exits non-zero (and names the offending line/offset) on the first
//! invalid file — the CI smoke runs it over every trace `repro --out DIR` writes.
//!
//! Files exported with a recorder meta header (`to_jsonl_with` /
//! `to_chrome_with`) carry the ring's eviction count; a non-zero count
//! means the trace is incomplete (oldest events overwritten), which this
//! tool reports as a non-fatal warning.
//!
//! JSON-lines files containing recorder events additionally get their
//! **causal links** validated: every `parent` must resolve to an event in
//! the file (unless excused by declared ring eviction or a post-mortem
//! bundle's `truncated_parents`), parents must precede their children in
//! canonical order, the graph must be acyclic, and switch-phase events
//! must form well-nested intervals. Any finding is fatal (exit 1).

use ps_obs::{json, CausalGraph};

/// The ring eviction count a `*_with` export embedded, if any.
fn overwritten_count(body: &str) -> Option<u64> {
    let key = "\"overwritten\":";
    let at = body.find(key)? + key.len();
    let digits: String = body[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

fn main() {
    let mut chrome = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--chrome" => chrome = true,
            "--help" | "-h" => {
                println!("usage: trace_lint [--chrome] FILE...");
                return;
            }
            other => files.push(other.to_owned()),
        }
    }
    if files.is_empty() {
        eprintln!("trace_lint: no files given; try --help");
        std::process::exit(2);
    }
    for path in &files {
        let body = match std::fs::read_to_string(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("trace_lint: cannot read {path}: {e}");
                std::process::exit(1);
            }
        };
        if chrome {
            if let Err(e) = json::validate(&body) {
                eprintln!("trace_lint: {path}: invalid JSON at byte {}: {}", e.offset, e.message);
                std::process::exit(1);
            }
            println!("{path}: valid Chrome trace JSON ({} bytes)", body.len());
        } else {
            match json::validate_lines(&body) {
                Ok(n) => println!("{path}: {n} valid JSON lines"),
                Err((line, e)) => {
                    eprintln!(
                        "trace_lint: {path}: line {line} invalid at byte {}: {}",
                        e.offset, e.message
                    );
                    std::process::exit(1);
                }
            }
            // Causal validation, for files that carry recorder events
            // (series/manifest files have none and are skipped).
            match ps_obs::parse_jsonl(&body) {
                Err(e) => {
                    eprintln!("trace_lint: {path}: cannot parse events: {e}");
                    std::process::exit(1);
                }
                Ok(parsed) if parsed.events.is_empty() => {}
                Ok(parsed) => {
                    let graph = CausalGraph::new(&parsed.events);
                    let findings = graph.lint(parsed.overwritten, &parsed.truncated_parents);
                    if findings.is_empty() {
                        println!("{path}: causal links valid ({} events)", parsed.events.len());
                    } else {
                        for f in &findings {
                            eprintln!("trace_lint: {path}: causal: {f}");
                        }
                        std::process::exit(1);
                    }
                }
            }
        }
        if let Some(n) = overwritten_count(&body) {
            if n > 0 {
                eprintln!(
                    "trace_lint: warning: {path}: ring evicted {n} events — the trace is \
                     incomplete; re-export with a larger ring_capacity"
                );
            }
        }
    }
}
