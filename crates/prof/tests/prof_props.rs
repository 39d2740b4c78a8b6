//! Property tests for the span-stack profiler's panic safety: RAII
//! guards must well-nest even when the observed region unwinds, and the
//! profiler must stay usable afterwards (poison-proof locks).

use ps_check::prelude::*;
use ps_prof::Profiler;

/// Opens `depth` nested spans (distinct fixed paths, so counts are
/// checkable per level) and panics at `panic_at` (if within range).
/// Returns the number of guards that were created before unwinding.
fn nest_and_maybe_panic(prof: &Profiler, depth: usize, panic_at: usize) -> usize {
    const LEVELS: [&[&'static str]; 8] = [
        &["engine", "dispatch"],
        &["engine", "wheel", "push"],
        &["engine", "wheel", "pop"],
        &["engine", "transmit"],
        &["stack", "layer"],
        &["obs", "record"],
        &["obs", "sinks", "monitors"],
        &["engine", "sample"],
    ];
    fn rec(prof: &Profiler, levels: &[&[&'static str]], panic_at: usize, at: usize) {
        let Some((first, rest)) = levels.split_first() else { return };
        let _guard = prof.span(first);
        assert!(at != panic_at, "seeded panic at depth {at}");
        rec(prof, rest, panic_at, at + 1);
    }
    rec(prof, &LEVELS[..depth], panic_at, 0);
    depth
}

props! {
    #![config(cases = 48)]

    /// A panic anywhere inside a nest of spans unwinds every guard in
    /// stack order: afterwards the live stack is empty (new spans get
    /// full credit), every opened span was counted exactly once, and
    /// the exclusive times still partition the root total exactly.
    fn spans_well_nest_across_panics(depth in 1usize..9, cut in arb::<u64>()) {
        let prof = Profiler::enabled();
        let panic_at = (cut % (depth as u64 + 1)) as usize; // == depth ⇒ no panic
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _root = prof.span(&[]);
            nest_and_maybe_panic(&prof, depth, panic_at);
        }));
        assert_eq!(result.is_err(), panic_at < depth);

        // Every guard that was opened — including the ones unwound by
        // the panic — exited exactly once. The deepest `depth -
        // min(panic_at+1, depth)` levels were never opened.
        let opened = if panic_at < depth { panic_at + 1 } else { depth };
        let rows = prof.rows();
        let entered: u64 = rows.iter().filter(|r| !r.path.is_empty()).map(|r| r.enters).sum();
        assert_eq!(entered as usize, opened);

        // The root span itself unwound cleanly too, and the exclusive
        // times of everything that ran inside it partition its total
        // exactly — a leaked live frame would siphon child credit and
        // break the equality.
        assert_eq!(rows[0].enters, 1);
        let self_sum: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(self_sum, rows[0].total_ns);

        // Stack is empty and the lock unpoisoned: a fresh span still
        // records.
        {
            let _again = prof.span(&["engine", "dispatch"]);
        }
        let entered_after: u64 =
            prof.rows().iter().filter(|r| !r.path.is_empty()).map(|r| r.enters).sum();
        assert_eq!(entered_after as usize, opened + 1);
    }
}
