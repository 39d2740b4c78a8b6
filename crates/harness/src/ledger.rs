//! Run ledger — a durable, appendable trail of `repro` invocations.
//!
//! Every `repro` subcommand accepts `--ledger PATH` and, when given,
//! appends exactly one self-describing JSON line to that file:
//!
//! ```json
//! {"kind":"ps-ledger","v":1,"cmd":"monitor","seed":16565,
//!  "config_fnv":"9f…","metrics":{"violations":0,"output_fnv":1234},
//!  "profile":{"kind":"ps-prof", …}}
//! ```
//!
//! The row carries which scenario ran (`cmd`), under which seed, a
//! digest of the effective configuration (so "same row, different
//! numbers" and "different config" are distinguishable), a few tier-0
//! integer metrics including an `output_fnv` digest of the rendered
//! report text, and — when the run was profiled — the profiler's JSON
//! summary verbatim. Rows from deterministic subcommands are
//! reproducible end-to-end: same seed, same config, same `output_fnv`.
//!
//! `ledger_check` (see `src/bin/ledger_check.rs`) diffs two ledger
//! files row by row.

use std::io::Write as _;
use std::path::Path;

/// FNV-1a 64-bit digest — the workspace's hermetic stand-in for a real
/// content hash (the harness tests also pin rendered outputs with it).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One ledger row, built up by the subcommand that ran.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    cmd: String,
    seed: u64,
    config_fnv: u64,
    metrics: Vec<(&'static str, u64)>,
    profile: Option<String>,
}

impl LedgerEntry {
    /// A row for subcommand `cmd` run under `seed`.
    pub fn new(cmd: impl Into<String>, seed: u64) -> Self {
        Self { cmd: cmd.into(), seed, config_fnv: 0, metrics: Vec::new(), profile: None }
    }

    /// Digests the effective configuration (any stable rendering of it —
    /// `format!("{cfg:?}")` works since configs derive `Debug`).
    pub fn config(mut self, rendered_config: &str) -> Self {
        self.config_fnv = fnv1a(rendered_config.as_bytes());
        self
    }

    /// Adds one named integer metric (order is preserved in the row).
    pub fn metric(mut self, key: &'static str, value: u64) -> Self {
        self.metrics.push((key, value));
        self
    }

    /// Digests the rendered report text into the `output_fnv` metric —
    /// the cheapest possible "did this run reproduce" check.
    pub fn output(self, rendered: &str) -> Self {
        let d = fnv1a(rendered.as_bytes());
        self.metric("output_fnv", d)
    }

    /// Embeds a profiler summary (one line of JSON, e.g.
    /// [`ps_prof::Profiler::json_summary`]) under the `profile` key.
    pub fn profile(mut self, summary: String) -> Self {
        self.profile = Some(summary);
        self
    }

    /// The row as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"kind\":\"ps-ledger\",\"v\":1,\"cmd\":\"{}\",\"seed\":{},\"config_fnv\":{}",
            self.cmd, self.seed, self.config_fnv
        );
        out.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push('}');
        if let Some(p) = &self.profile {
            out.push_str(",\"profile\":");
            out.push_str(p);
        }
        out.push('}');
        out
    }

    /// Appends the row to `path` (creating the file if needed).
    pub fn append(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(f, "{}", self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_shape_is_self_describing_and_appendable() {
        let e = LedgerEntry::new("monitor", 7)
            .config("Cfg { group: 4 }")
            .metric("violations", 0)
            .output("== table ==\n");
        let line = e.to_json();
        assert!(line.starts_with("{\"kind\":\"ps-ledger\",\"v\":1,\"cmd\":\"monitor\",\"seed\":7"));
        assert!(line.contains("\"metrics\":{\"violations\":0,\"output_fnv\":"));
        assert!(!line.contains("profile"));

        let dir = std::env::temp_dir().join(format!("ps-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        e.append(&path).unwrap();
        e.clone().profile("{\"kind\":\"ps-prof\",\"v\":1}".into()).append(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body
            .lines()
            .nth(1)
            .unwrap()
            .ends_with(",\"profile\":{\"kind\":\"ps-prof\",\"v\":1}}"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn same_input_same_digest() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }
}
