//! The eight example properties of the paper's Table 1, as executable
//! predicates on [`Trace`]s.
//!
//! | Property | Table-1 definition |
//! |---|---|
//! | [`Reliability`] | Every message that is sent is delivered to all receivers |
//! | [`TotalOrder`] | Processes that deliver the same two messages deliver them in the same order |
//! | [`Integrity`] | Messages cannot be forged; they are sent by trusted processes |
//! | [`Confidentiality`] | Non-trusted processes cannot see messages from trusted processes |
//! | [`NoReplay`] | A message body can be delivered at most once to a process |
//! | [`PrioritizedDelivery`] | The master process always delivers a message before any one else |
//! | [`Amoeba`] | A process is blocked from sending while it is awaiting its own messages |
//! | [`VirtualSynchrony`] | A process only delivers messages from processes in some common view |

mod amoeba;
mod causal;
mod confidentiality;
mod integrity;
mod no_replay;
mod priority;
mod reliability;
mod total_order;
mod vsync;

pub use amoeba::Amoeba;
pub use causal::CausalOrder;
pub use confidentiality::Confidentiality;
pub use integrity::Integrity;
pub use no_replay::NoReplay;
pub use priority::PrioritizedDelivery;
pub use reliability::Reliability;
pub use total_order::TotalOrder;
pub use vsync::VirtualSynchrony;

use crate::Trace;
use std::fmt;

/// A predicate on traces — the paper's notion of a communication property
/// (§3): "dividing all traces into two categories: those traces for which
/// the property holds, and those for which it does not."
pub trait Property: fmt::Debug {
    /// Short name used in tables ("Total Order", …).
    fn name(&self) -> &'static str;

    /// The Table-1 one-line definition.
    fn description(&self) -> &'static str;

    /// Whether the property holds of `tr`.
    fn holds(&self, tr: &Trace) -> bool;
}

/// Builds the paper's full Table-1 property suite over a group of `n`
/// processes: the properties of [`crate::check::property_gens`], which
/// states the conventions (trusted set, master) once, so Table 2's rows and
/// every other use of the suite read the same list.
pub fn standard_suite(n: u16) -> Vec<Box<dyn Property>> {
    crate::check::property_gens(n).into_iter().map(|(prop, _)| prop).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_distinct_properties() {
        let suite = standard_suite(4);
        assert_eq!(suite.len(), 8);
        let mut names: Vec<&str> = suite.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn all_hold_on_empty_trace() {
        // Every Table-1 property is vacuously true of the empty trace.
        let tr = Trace::new();
        for p in standard_suite(3) {
            assert!(p.holds(&tr), "{} should hold on the empty trace", p.name());
        }
    }
}
