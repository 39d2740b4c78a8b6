//! Pins what the Table-2 judge returns for every cell: the verdict, the
//! number of candidates it judged, and the witness it kept.
//!
//! `repro table2 --quick` prints only ✓/✗, and the witnesses only under
//! `--counterexamples`; nothing else shows `samples`. Both checkers feed
//! the same judgement (`check::judge`), so a change to either candidate
//! source or to the judge itself that reorders, drops or adds a candidate
//! moves one of these digests. Each line is
//! `property|meta|preserved|samples|witness`, the witness printed with
//! `{:?}` so message bodies count too. The digests were computed before
//! the two checkers were folded onto one judge; refreshing one requires
//! showing the change in candidates is intended.

use ps_trace::check::{table2, CellVerdict, CheckConfig};
use ps_trace::exhaustive::{check_cell_exhaustive, event_universe, ExhaustiveConfig};
use ps_trace::meta::MetaKind;
use ps_trace::props::{standard_suite, CausalOrder};
use ps_trace::{Message, ProcessId};

/// FNV-1a, 64-bit — tiny, stable, and dependency-free.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Folds one cell into `h`, and checks that the judge saw a candidate:
/// a ✓ over no candidates would mean nothing was checked.
fn fold(h: u64, property: &str, v: &CellVerdict) -> u64 {
    assert!(v.samples > 0, "{property} / {} judged no candidate", v.meta);
    let line =
        format!("{property}|{}|{}|{}|{:?}\n", v.meta, v.preserved, v.samples, v.counterexample);
    fnv1a(line.as_bytes(), h)
}

const SAMPLED: u64 = 0x3e0b_ca3c_4950_3faa;
const EXHAUSTIVE: u64 = 0xe1dd_c8db_333d_86eb;

#[test]
fn sampled_table2_cells_match_their_pin() {
    let mut h = 0;
    for row in table2(4, &CheckConfig::quick()) {
        for cell in &row.cells {
            h = fold(h, &row.property, &cell.verdict);
        }
    }
    assert_eq!(h, SAMPLED, "sampled digest moved: got {h:#018x}, pinned {SAMPLED:#018x}");
}

#[test]
fn exhaustive_cells_match_their_pin() {
    // `exhaustive_matrix.rs`'s data universe: m1/m3 from p0, m2 from p1,
    // m1 and m2 sharing a body.
    let universe = event_universe(
        2,
        &[
            Message::with_tag(ProcessId(0), 1, 7),
            Message::with_tag(ProcessId(1), 1, 7),
            Message::with_tag(ProcessId(0), 2, 9),
        ],
    );
    let cfg = ExhaustiveConfig { max_len: 4, ..ExhaustiveConfig::default() };
    let mut props = standard_suite(2);
    props.push(Box::new(CausalOrder));
    let mut h = 0;
    for prop in &props {
        for meta in MetaKind::ALL {
            h = fold(h, prop.name(), &check_cell_exhaustive(prop.as_ref(), meta, &universe, &cfg));
        }
    }
    assert_eq!(h, EXHAUSTIVE, "exhaustive digest moved: got {h:#018x}, pinned {EXHAUSTIVE:#018x}");
}
