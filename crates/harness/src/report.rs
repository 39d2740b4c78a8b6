//! Plain-text table rendering for experiment reports.

use std::fmt;

/// One monitor verdict on one line: property, node, instant, detail.
pub fn violation(v: &ps_obs::Violation) -> String {
    format!("{} node {} at {}us: {}", v.kind.as_str(), v.node, v.at_us, v.detail)
}

/// Microseconds as milliseconds with three decimals (`1234` → `1.234`),
/// the unit every report prints instants and durations in.
pub fn ms(us: u64) -> String {
    format!("{}.{:03}", us / 1000, us % 1000)
}

/// A simple aligned text table with a title, header row and data rows.
///
/// # Examples
///
/// ```
/// use ps_harness::Table;
///
/// let mut t = Table::new("demo", vec!["k", "latency"]);
/// t.row(vec!["1".into(), "2.1 ms".into()]);
/// let out = t.to_string();
/// assert!(out.contains("demo"));
/// assert!(out.contains("latency"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote rendered under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (header + rows; notes become `#` comment lines). A
    /// cell holding `,`, `"` or a line break is quoted as RFC 4180 says:
    /// wrapped in `"`, with each inner `"` doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        for line in std::iter::once(&self.header).chain(&self.rows) {
            let cells: Vec<_> = line.iter().map(|c| csv_field(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

/// One CSV field: `cell` verbatim, or quoted if it would split the line.
fn csv_field(cell: &str) -> std::borrow::Cow<'_, str> {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\"")).into()
    } else {
        cell.into()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Unicode-aware-enough width: char count (all our content is ASCII
        // plus ✓/✗, each one char wide).
        let width = |s: &str| s.chars().count();
        let cols = self.header.len();
        let mut w = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = w[i].max(width(h));
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(width(c));
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        // Pad by char count (format!'s width counts bytes, which breaks on
        // the ✓/✗ cells).
        let pad = |s: &str, target: usize| {
            let mut out = s.to_owned();
            while width(&out) < target + 2 {
                out.push(' ');
            }
            out
        };
        let header_line: String =
            self.header.iter().enumerate().map(|(i, h)| pad(h, w[i])).collect();
        writeln!(f, "{}", header_line.trim_end())?;
        writeln!(f, "{}", "-".repeat(width(header_line.trim_end())))?;
        for r in &self.rows {
            let line: String = r.iter().enumerate().map(|(i, c)| pad(c, w[i])).collect();
            writeln!(f, "{}", line.trim_end())?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", vec!["a", "long-header", "c"]);
        t.row(vec!["1".into(), "x".into(), "✓".into()]);
        t.row(vec!["22".into(), "yyyy".into(), "✗".into()]);
        t.note("a note");
        t
    }

    #[test]
    fn renders_all_cells_and_notes() {
        let s = sample().to_string();
        for needle in ["== t ==", "long-header", "22", "✓", "✗", "note: a note"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn columns_align() {
        let s = sample().to_string();
        let lines: Vec<&str> = s.lines().collect();
        // Header and rows start their second column at the same offset.
        let hdr = lines[1];
        let row = lines[3];
        let hdr_idx = hdr.find("long-header").unwrap();
        let row_idx =
            row.char_indices().nth(hdr.chars().take_while(|c| *c != 'l').count()).map(|(i, _)| i);
        assert!(row_idx.is_some());
        assert!(hdr_idx > 0);
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# a note");
        assert_eq!(lines[1], "a,long-header,c");
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_quotes_a_cell_that_would_split_its_line() {
        let mut t = Table::new("t", vec!["property", "detail"]);
        t.row(vec!["total_order".into(), "delivery #7 is (1,1) but has (3,8)".into()]);
        t.row(vec!["fifo".into(), "say \"hi\"\nthen go".into()]);
        t.row(vec!["plain".into(), "no quoting".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "total_order,\"delivery #7 is (1,1) but has (3,8)\"");
        assert_eq!(lines[2], "fifo,\"say \"\"hi\"\"");
        assert_eq!(lines[3], "then go\"");
        assert_eq!(lines[4], "plain,no quoting");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("t", vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
