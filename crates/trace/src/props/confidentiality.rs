use crate::props::Property;
use crate::{Event, ProcessId, Trace};
use std::collections::BTreeSet;

/// **Confidentiality** (Table 1): non-trusted processes cannot see messages
/// from trusted processes.
///
/// A pure per-event predicate — it constrains *which* deliveries may occur,
/// never their order or multiplicity — so it trivially satisfies all six
/// meta-properties and is preserved by switching (the paper's "increase
/// security at run-time" use case relies on this).
#[derive(Debug, Clone)]
pub struct Confidentiality {
    trusted: BTreeSet<ProcessId>,
}

impl Confidentiality {
    /// Creates the property with the given trusted set.
    pub fn new(trusted: impl IntoIterator<Item = ProcessId>) -> Self {
        Self { trusted: trusted.into_iter().collect() }
    }
}

impl Property for Confidentiality {
    fn name(&self) -> &'static str {
        "Confidentiality"
    }

    fn description(&self) -> &'static str {
        "non-trusted processes cannot see messages from trusted processes"
    }

    fn holds(&self, tr: &Trace) -> bool {
        tr.iter().all(|e| match e {
            Event::Deliver(p, m) => {
                !(self.trusted.contains(&m.id.sender) && !self.trusted.contains(p))
            }
            Event::Send(_) => true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;

    fn p(i: u16) -> ProcessId {
        ProcessId(i)
    }

    #[test]
    fn trusted_to_trusted_allowed() {
        let m = Message::with_tag(p(0), 1, 1);
        let tr = Trace::from_events(vec![Event::send(m.clone()), Event::deliver(p(1), m)]);
        assert!(Confidentiality::new([p(0), p(1)]).holds(&tr));
    }

    #[test]
    fn trusted_to_untrusted_leaks() {
        let m = Message::with_tag(p(0), 1, 1);
        let tr = Trace::from_events(vec![Event::send(m.clone()), Event::deliver(p(2), m)]);
        assert!(!Confidentiality::new([p(0), p(1)]).holds(&tr));
    }

    #[test]
    fn untrusted_traffic_unconstrained() {
        // Untrusted senders may be seen by anyone.
        let m = Message::with_tag(p(2), 1, 1);
        let tr = Trace::from_events(vec![
            Event::send(m.clone()),
            Event::deliver(p(0), m.clone()),
            Event::deliver(p(2), m),
        ]);
        assert!(Confidentiality::new([p(0), p(1)]).holds(&tr));
    }

    #[test]
    fn untrusted_to_trusted_allowed() {
        let m = Message::with_tag(p(2), 1, 1);
        let tr = Trace::from_events(vec![Event::send(m.clone()), Event::deliver(p(0), m)]);
        assert!(Confidentiality::new([p(0)]).holds(&tr));
    }
}
