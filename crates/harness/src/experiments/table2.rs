//! Table 2: which properties satisfy which meta-properties.
//!
//! The matrix is regenerated by the executable checker in
//! [`ps_trace::check`]; cells the paper's prose pins are marked with `*`.
//! Every ✗ cell carries a machine-found counterexample trace, printable
//! with [`render_counterexamples`].

use crate::report::Table;
use crate::sweep::SweepRunner;
use ps_trace::check::{table2, table2_len, table2_row, CheckConfig, Provenance, Table2Row};
use ps_trace::meta::MetaKind;

/// Number of processes in generated traces.
const PROCS: u16 = 4;

/// Configuration: the checker's search budget.
#[derive(Debug, Clone, Default)]
pub struct Table2Config {
    /// Checker search budget.
    pub budget: CheckConfig,
}

impl Table2Config {
    /// Reduced budget for tests.
    pub fn quick() -> Self {
        Self { budget: CheckConfig::quick() }
    }
}

/// Runs the checker over the full matrix serially.
pub fn run(cfg: &Table2Config) -> Vec<Table2Row> {
    table2(PROCS, &cfg.budget)
}

/// Runs the checker with one matrix row per sweep job. Each row rebuilds
/// its property and generators from the same deterministic seeds, and the
/// rows are reassembled in index order, so the output is identical to
/// [`run`]'s whatever the worker count.
pub(crate) fn run_with(cfg: &Table2Config, runner: &SweepRunner) -> Vec<Table2Row> {
    let rows: Vec<usize> = (0..table2_len(PROCS)).collect();
    runner
        .run(rows, |_, row| table2_row(PROCS, row, &cfg.budget).expect("row index from table2_len"))
}

/// `repro table2`: the matrix, the agreement line and, with
/// `--counterexamples`, every ✗ cell's witness.
pub(crate) fn artefacts(ask: &super::Ask) -> super::Artefacts {
    let cfg = ask.budget(Table2Config::quick, Default::default);
    let rows = run_with(&cfg, &ask.runner);
    let (agree, pinned) = agreement(&rows);
    let mut out = ask.print(&render(&rows));
    out += &format!("paper-pinned cells in agreement: {agree}/{pinned}\n\n");
    if ask.counterexamples {
        out += &render_counterexamples(&rows);
        out.push('\n');
    }
    super::Artefacts::new(out, 0, format!("{cfg:?}")).count("agree", agree).count("pinned", pinned)
}

/// Renders the matrix in the paper's layout (✓/✗; `*` = pinned by the
/// paper's prose and confirmed by the checker).
pub fn render(rows: &[Table2Row]) -> Table {
    let mut header = vec!["property"];
    for m in MetaKind::ALL {
        header.push(m.name());
    }
    header.push("cx events p50/max");
    let mut t = Table::new("Table 2 — which properties satisfy which meta-properties?", header);
    for row in rows {
        let mut cells = vec![row.property.clone()];
        for cell in &row.cells {
            let mark = if cell.verdict.preserved { "✓" } else { "✗" };
            let pin = match cell.provenance {
                Provenance::Paper => "*",
                Provenance::Derived => "",
            };
            cells.push(format!("{mark}{pin}"));
        }
        // Counterexample sizes for this row, bucketed with a ps-obs
        // histogram: how big a trace the checker needed to break each
        // failing cell. Deterministic — the checker search is seeded.
        let hist = ps_obs::Histogram::new();
        for cell in &row.cells {
            if let Some(cx) = &cell.verdict.counterexample {
                hist.record(cx.above.len() as u64);
            }
        }
        let s = hist.summary();
        cells.push(if s.count == 0 { "-".to_owned() } else { format!("{}/{}", s.p50, s.max) });
        t.row(cells);
    }
    t.note(
        "* = cell stated in the paper's prose (§5–§6); unmarked cells are derived by the checker",
    );
    t.note("✓ = no counterexample in the search budget; ✗ = counterexample trace found (see --counterexamples)");
    t.note("cx events = events in the violating trace across the row's ✗ cells (p50/max)");
    t
}

/// Renders every negative cell's counterexample, one block per cell.
pub fn render_counterexamples(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    for row in rows {
        for cell in &row.cells {
            if let Some(cx) = &cell.verdict.counterexample {
                out.push_str(&format!(
                    "{} / {} is NOT preserved:\n  below:  {}\n",
                    row.property, cell.verdict.meta, cx.below
                ));
                if let Some(b2) = &cx.second_below {
                    out.push_str(&format!("  below2: {b2}\n"));
                }
                out.push_str(&format!("  above:  {}\n\n", cx.above));
            }
        }
    }
    out
}

/// Summary agreement stats against the paper's pinned cells.
pub fn agreement(rows: &[Table2Row]) -> (usize, usize) {
    let mut pinned = 0;
    let mut agree = 0;
    for row in rows {
        for cell in &row.cells {
            if cell.provenance == Provenance::Paper {
                pinned += 1;
                if !cell.disagrees_with_paper() {
                    agree += 1;
                }
            }
        }
    }
    (agree, pinned)
}
