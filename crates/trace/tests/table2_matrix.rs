//! End-to-end check of the regenerated Table 2.
//!
//! The expected matrix below is the reconstruction documented in DESIGN.md:
//! the prose-pinned cells (§5–§6) plus the cells derived from the
//! definitions. Every ✗ must come with a concrete counterexample; every
//! paper-pinned cell must agree with the checker.

use ps_trace::check::{table2, CheckConfig};
use ps_trace::meta::MetaKind;

/// Expected matrix, rows in `property_gens` order, columns in
/// `MetaKind::ALL` order: Safety, Asynchronous, Send Enabled, Delayable,
/// Memoryless, Composable.
const EXPECTED: &[(&str, [bool; 6])] = &[
    ("Reliability", [false, true, false, true, true, true]),
    ("Total Order", [true, true, true, true, true, true]),
    ("Integrity", [true, true, true, true, true, true]),
    ("Confidentiality", [true, true, true, true, true, true]),
    ("No Replay", [true, true, true, true, true, false]),
    ("Prioritized Delivery", [true, false, true, true, true, true]),
    ("Amoeba", [true, true, false, false, true, false]),
    ("Virtual Synchrony", [true, true, true, true, false, false]),
];

#[test]
fn regenerated_table2_matches_reconstruction() {
    let rows = table2(4, &CheckConfig::quick());
    assert_eq!(rows.len(), EXPECTED.len());
    let mut failures = Vec::new();
    for (row, (name, expected)) in rows.iter().zip(EXPECTED) {
        assert_eq!(&row.property, name);
        for (cell, (&want, &meta)) in row.cells.iter().zip(expected.iter().zip(&MetaKind::ALL)) {
            if cell.verdict.preserved != want {
                let cx = cell
                    .verdict
                    .counterexample
                    .as_ref()
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "none (no counterexample found)".into());
                failures.push(format!(
                    "{name} / {meta}: got {}, expected {} — counterexample: {cx}",
                    cell.verdict.preserved, want
                ));
            }
        }
    }
    assert!(failures.is_empty(), "matrix mismatches:\n{}", failures.join("\n"));
}

#[test]
fn paper_pinned_cells_agree_and_are_labelled() {
    let rows = table2(4, &CheckConfig::quick());
    let mut paper_cells = 0;
    for row in &rows {
        for cell in &row.cells {
            if cell.paper_value.is_some() {
                paper_cells += 1;
                assert!(
                    !cell.disagrees_with_paper(),
                    "{} / {} disagrees with the paper's prose",
                    row.property,
                    cell.verdict.meta
                );
            }
        }
    }
    assert_eq!(paper_cells, 25, "all 25 prose-pinned cells must be labelled");
}

#[test]
fn every_negative_cell_carries_a_witness() {
    let rows = table2(4, &CheckConfig::quick());
    for row in &rows {
        for cell in &row.cells {
            if !cell.verdict.preserved {
                let cx = cell.verdict.counterexample.as_ref().unwrap_or_else(|| {
                    panic!("{} / {} is ✗ without witness", row.property, cell.verdict.meta)
                });
                assert!(!cx.above.is_well_formed() || cx.above.is_well_formed());
                assert!(
                    cx.above.len()
                        <= cx.below.len() + cx.second_below.as_ref().map_or(6, |t| t.len())
                );
            }
        }
    }
}
