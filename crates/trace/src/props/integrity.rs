use crate::props::Property;
use crate::{Event, ProcessId, Trace};
use std::collections::BTreeSet;

/// **Integrity** (Table 1): messages cannot be forged; they are sent by
/// trusted processes.
///
/// Formally: every delivery is preceded by the send of the same message,
/// and that sender is in the trusted set. The "preceded" part encodes
/// causality — a delivery with no prior send is exactly a forgery. The
/// rewrite relations in [`crate::meta`] never invert a send/deliver pair of
/// the same message, so Integrity satisfies all six meta-properties, as in
/// the paper's Table 2.
#[derive(Debug, Clone)]
pub struct Integrity {
    trusted: BTreeSet<ProcessId>,
}

impl Integrity {
    /// Creates the property with the given trusted set.
    pub fn new(trusted: impl IntoIterator<Item = ProcessId>) -> Self {
        Self { trusted: trusted.into_iter().collect() }
    }
}

impl Property for Integrity {
    fn name(&self) -> &'static str {
        "Integrity"
    }

    fn description(&self) -> &'static str {
        "messages cannot be forged; they are sent by trusted processes"
    }

    fn holds(&self, tr: &Trace) -> bool {
        let mut sent = BTreeSet::new();
        for e in tr.iter() {
            match e {
                Event::Send(m) => {
                    sent.insert(m.id);
                }
                Event::Deliver(_, m) => {
                    if !sent.contains(&m.id) || !self.trusted.contains(&m.id.sender) {
                        return false;
                    }
                }
            }
        }
        true
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
    fn holds_for_trusted_sends_then_deliveries() {
        let m = Message::with_tag(p(0), 1, 3);
        let tr = Trace::from_events(vec![Event::send(m.clone()), Event::deliver(p(1), m)]);
        assert!(Integrity::new([p(0)]).holds(&tr));
    }

    #[test]
    fn forged_delivery_fails() {
        // Delivery with no send anywhere: forged.
        let m = Message::with_tag(p(0), 1, 3);
        let tr = Trace::from_events(vec![Event::deliver(p(1), m)]);
        assert!(!Integrity::new([p(0)]).holds(&tr));
    }

    #[test]
    fn delivery_before_send_fails() {
        // A delivery preceding its own send is indistinguishable from a
        // forgery at the moment it happens.
        let m = Message::with_tag(p(0), 1, 3);
        let tr = Trace::from_events(vec![Event::deliver(p(1), m.clone()), Event::send(m)]);
        assert!(!Integrity::new([p(0)]).holds(&tr));
    }

    #[test]
    fn untrusted_sender_fails() {
        let m = Message::with_tag(p(2), 1, 3);
        let tr = Trace::from_events(vec![Event::send(m.clone()), Event::deliver(p(1), m)]);
        assert!(!Integrity::new([p(0), p(1)]).holds(&tr));
    }

    #[test]
    fn untrusted_send_without_delivery_is_fine() {
        // The property constrains deliveries; an untrusted process may
        // *send* (its messages must simply never be delivered).
        let m = Message::with_tag(p(2), 1, 3);
        let tr = Trace::from_events(vec![Event::send(m)]);
        assert!(Integrity::new([p(0)]).holds(&tr));
    }
}
