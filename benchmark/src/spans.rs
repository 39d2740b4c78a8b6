//! Benchmark-owned spans around each call into a layer.
//!
//! The traced run wraps every step of a rep — and every layer drive — in
//! a span: name, start, end, parent, and the `workload.rep` id all spans
//! of one rep share. Spans live in memory and are written out once, as
//! JSON lines, when the run ends. Nothing here reaches inside a crate;
//! the engine's own `ps-prof` rows are read separately.

use std::io::Write;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// What was called, e.g. `driver.run_until`.
    pub name: &'static str,
    /// `workload.rep` id shared by all spans of one rep (`drive.0` for
    /// layer drives).
    pub rep: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while open.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing, so the
/// same rep code serves the traced and the untraced run.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    rep: String,
    open: Vec<usize>,
    spans: Vec<Span>,
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a span that is never ended has no duration"]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), rep: String::new(), open: Vec::new(), spans: Vec::new() }
    }

    /// Sets the `workload.rep` id stamped on spans begun from now on.
    pub fn set_rep(&mut self, workload: &str, rep: usize) {
        if self.on {
            self.rep = format!("{workload}.{rep}");
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            rep: self.rep.clone(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    /// Closes a span. Spans must close innermost-first.
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "benchmark spans must nest");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the time its direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Share of each root span's duration covered by its direct children;
    /// the smallest one over all roots that have children.
    pub fn min_root_coverage(&self) -> f64 {
        let mut min = 1.0f64;
        for (idx, s) in self.spans.iter().enumerate() {
            let has_children = self.spans.iter().any(|c| c.parent == Some(idx));
            if s.parent.is_none() && has_children && s.end_ns > s.start_ns {
                let total = (s.end_ns - s.start_ns) as f64;
                min = min.min(1.0 - self.self_ns(idx) as f64 / total);
            }
        }
        min
    }

    /// Writes one JSON object per span: `id`, `parent` (or `null`), `name`,
    /// `rep`, `start_ns`, `end_ns`, `self_ns`.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> std::io::Result<()> {
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{idx},\"parent\":{parent},\"name\":\"{}\",\"rep\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                self.self_ns(idx)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep("w", 3);
        let root = t.begin("rep");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("b");
        t.end(b);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == "w.3" && s.end_ns >= s.start_ns));
        // Children lie inside the parent and do not overlap.
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let child_ns =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(t.self_ns(0), (spans[0].end_ns - spans[0].start_ns) - child_ns);
        assert!(t.min_root_coverage() > 0.9);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
        assert_eq!(t.min_root_coverage(), 1.0);
    }
}
