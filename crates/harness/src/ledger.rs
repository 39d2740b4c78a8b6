//! Run ledger — a durable, appendable trail of `repro` invocations.
//!
//! `repro --ledger PATH` appends one JSON line per experiment it ran:
//! `{"kind":"ps-ledger","v":2,"cmd":…,"seed":…,"config_fnv":…,"metrics":{…}}`,
//! plus `"profile":{…}` (the profiler's JSON summary) for a profiled run.
//! `cmd` is the experiment, with `+fault` when the broken ordering layer
//! was spliced in; `config_fnv` digests the effective configuration, so
//! "same row, different numbers" and "different config" are told apart;
//! `metrics` holds the experiment's counts and an FNV digest of every
//! exact artefact — `stdout_fnv` for the printed report when it is exact,
//! `<artefact>_fnv` for each exact file. Same seed, same config: same row.
//!
//! [`read`] parses rows back and [`diff`] compares two ledgers; the
//! `ledger_check` binary and the pin test (`crates/harness/pins.jsonl`)
//! share both.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::Path;

/// FNV-1a 64-bit digest — the workspace's hermetic stand-in for a real
/// content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One ledger row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The experiment, with `+fault` for a fault run.
    pub cmd: String,
    /// The seed the row is filed under.
    pub seed: u64,
    /// Digest of the rendered effective config.
    pub config_fnv: u64,
    /// Named integer metrics, in row order.
    pub metrics: Vec<(String, u64)>,
    /// A profiler summary (one line of JSON), written verbatim and not
    /// read back.
    pub profile: Option<String>,
}

impl LedgerEntry {
    /// The row as one line of JSON (no trailing newline).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> =
            self.metrics.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        let mut out = format!(
            "{{\"kind\":\"ps-ledger\",\"v\":2,\"cmd\":\"{}\",\"seed\":{},\"config_fnv\":{},\"metrics\":{{{}}}",
            self.cmd,
            self.seed,
            self.config_fnv,
            metrics.join(",")
        );
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

    /// Reads a row written by [`to_json`](Self::to_json); `None` for any
    /// other line.
    fn parse(line: &str) -> Option<Self> {
        if !line.contains("\"kind\":\"ps-ledger\"") {
            return None;
        }
        let field = |key: &str| {
            let tag = format!("\"{key}\":");
            let at = line.find(&tag)? + tag.len();
            Some(&line[at..])
        };
        let int = |key: &str| field(key)?.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok();
        let cmd = field("cmd")?.strip_prefix('"')?.split('"').next()?.to_owned();
        let body = field("metrics")?.strip_prefix('{')?.split('}').next()?;
        let metrics = body
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| {
                let (k, v) = p.rsplit_once(':')?;
                Some((k.trim_matches('"').to_owned(), v.parse().ok()?))
            })
            .collect::<Option<_>>()?;
        Some(Self {
            cmd,
            seed: int("seed")?,
            config_fnv: int("config_fnv")?,
            metrics,
            profile: None,
        })
    }
}

/// A ledger's rows by `(cmd, seed)`.
type Rows = BTreeMap<(String, u64), LedgerEntry>;

/// Every ledger row in `body` by `(cmd, seed)`; other lines are skipped,
/// and a repeated key keeps the last row (the most recent append wins).
pub fn read(body: &str) -> Rows {
    body.lines().filter_map(LedgerEntry::parse).map(|e| ((e.cmd.clone(), e.seed), e)).collect()
}

/// Every difference between two ledgers, one line each: a row or a
/// metric present on one side only, a config digest or a metric that
/// differs. A row whose config digest differs still has its metrics
/// compared, so a config edit cannot hide an output that moved with it.
/// Empty means `b` reproduces `a` exactly.
pub fn diff(a: &Rows, b: &Rows, a_name: &str, b_name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for key @ (cmd, seed) in a.keys().chain(b.keys()).collect::<BTreeSet<_>>() {
        let row = format!("{cmd} seed {seed}");
        let (Some(ra), Some(rb)) = (a.get(key), b.get(key)) else {
            let side = if a.contains_key(key) { a_name } else { b_name };
            out.push(format!("{row}: only in {side}"));
            continue;
        };
        if ra.config_fnv != rb.config_fnv {
            let (x, y) = (ra.config_fnv, rb.config_fnv);
            out.push(format!(
                "{row}: config digest differs ({x} vs {y}) — not the same experiment"
            ));
        }
        let (ma, mb): (BTreeMap<_, _>, BTreeMap<_, _>) =
            (ra.metrics.iter().cloned().collect(), rb.metrics.iter().cloned().collect());
        for k in ma.keys().chain(mb.keys()).collect::<BTreeSet<_>>() {
            match (ma.get(k), mb.get(k)) {
                (Some(va), Some(vb)) if va == vb => {}
                (Some(va), Some(vb)) => out.push(format!("{row}: {k} {va} -> {vb}  <-- drifted")),
                (Some(_), None) => out.push(format!("{row}: {k} only in {a_name}")),
                _ => out.push(format!("{row}: {k} only in {b_name}")),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(cmd: &str, metrics: &[(&str, u64)]) -> LedgerEntry {
        let metrics = metrics.iter().map(|&(k, v)| (k.to_owned(), v)).collect();
        LedgerEntry { cmd: cmd.to_owned(), seed: 7, config_fnv: 42, metrics, profile: None }
    }

    #[test]
    fn row_shape_is_self_describing_and_appendable() {
        let e = row("monitor", &[("violations", 0), ("stdout_fnv", fnv1a(b"== table ==\n"))]);
        let line = e.to_json();
        assert!(line.starts_with("{\"kind\":\"ps-ledger\",\"v\":2,\"cmd\":\"monitor\",\"seed\":7"));
        assert!(line.contains("\"metrics\":{\"violations\":0,\"stdout_fnv\":"));
        assert!(!line.contains("profile"));
        assert_eq!(LedgerEntry::parse(&line), Some(e.clone()));

        let dir = std::env::temp_dir().join(format!("ps-ledger-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        e.append(&path).unwrap();
        let profiled =
            LedgerEntry { profile: Some("{\"kind\":\"ps-prof\",\"v\":1}".into()), ..e.clone() };
        profiled.append(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        let last = body.lines().nth(1).unwrap();
        assert!(last.ends_with(",\"profile\":{\"kind\":\"ps-prof\",\"v\":1}}"));
        assert_eq!(LedgerEntry::parse(last), Some(e), "the profile is not read back");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn same_input_same_digest() {
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
    }

    #[test]
    fn a_row_only_one_side_has_is_a_difference() {
        let both = row("monitor", &[("violations", 0)]);
        let a = read(&format!("{}\n{}", both.to_json(), row("chaos", &[]).to_json()));
        let b = read(&both.to_json());
        assert_eq!(diff(&a, &b, "A", "B"), ["chaos seed 7: only in A"]);
        assert_eq!(diff(&b, &a, "B", "A"), ["chaos seed 7: only in A"]);
        assert!(diff(&a, &a, "A", "A").is_empty());
    }

    #[test]
    fn a_config_change_does_not_hide_a_drifted_metric() {
        let a = read(&row("chaos", &[("failed", 0), ("stdout_fnv", 9)]).to_json());
        let moved =
            LedgerEntry { config_fnv: 43, ..row("chaos", &[("failed", 0), ("stdout_fnv", 8)]) };
        let b = read(&moved.to_json());
        assert_eq!(
            diff(&a, &b, "A", "B"),
            [
                "chaos seed 7: config digest differs (42 vs 43) — not the same experiment",
                "chaos seed 7: stdout_fnv 9 -> 8  <-- drifted",
            ]
        );
        let same =
            LedgerEntry { config_fnv: 43, ..row("chaos", &[("failed", 0), ("stdout_fnv", 9)]) };
        assert_eq!(
            diff(&a, &read(&same.to_json()), "A", "B"),
            ["chaos seed 7: config digest differs (42 vs 43) — not the same experiment"]
        );
    }

    #[test]
    fn a_metric_only_one_side_has_is_a_difference() {
        let a = read(&row("monitor", &[("violations", 0), ("stdout_fnv", 9)]).to_json());
        let b = read(&row("monitor", &[("violations", 0)]).to_json());
        assert_eq!(diff(&a, &b, "A", "B"), ["monitor seed 7: stdout_fnv only in A"]);
        assert_eq!(diff(&b, &a, "B", "A"), ["monitor seed 7: stdout_fnv only in A"]);
    }
}
