use crate::mac::keyed_hash;
use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};
use std::collections::BTreeSet;

/// Integrity: "messages cannot be forged; they are sent by trusted
/// processes" (Table 1).
///
/// Each downward frame is tagged with a keyed MAC over `(sender, payload)`.
/// Receivers verify the tag and the sender's membership in the trusted
/// set; failures are dropped silently. Processes constructed *without* the
/// key (see [`IntegrityLayer::untrusted`]) send untagged garbage that
/// verifiers reject — which is how the tests demonstrate the property.
///
/// The MAC is [`crate::mac::keyed_hash`] — a simulation of the mechanism,
/// not cryptography (see DESIGN.md).
#[derive(Debug)]
pub struct IntegrityLayer {
    key: Option<u64>,
    trusted: BTreeSet<ProcessId>,
    /// Frames rejected by verification (observable).
    pub rejected: u64,
}

#[derive(Debug, PartialEq)]
struct IntHeader {
    sender: ProcessId,
    tag: u64,
}

impl Wire for IntHeader {
    fn encode(&self, enc: &mut Encoder) {
        self.sender.encode(enc);
        enc.put_u64(self.tag);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(IntHeader { sender: ProcessId::decode(dec)?, tag: dec.get_u64()? })
    }
}

const LABEL: u8 = 0x17;

fn tag_for(key: u64, sender: ProcessId, payload: &[u8]) -> u64 {
    let mut data = sender.0.to_le_bytes().to_vec();
    data.extend_from_slice(payload);
    keyed_hash(key, LABEL, &data)
}

impl IntegrityLayer {
    /// Creates a trusted instance holding the group key.
    pub fn new(key: u64, trusted: impl IntoIterator<Item = ProcessId>) -> Self {
        Self { key: Some(key), trusted: trusted.into_iter().collect(), rejected: 0 }
    }

    /// Creates an instance *without* the key — its sends carry an invalid
    /// tag (a forgery attempt), and it cannot verify inbound traffic, so it
    /// delivers nothing.
    pub fn untrusted(trusted: impl IntoIterator<Item = ProcessId>) -> Self {
        Self { key: None, trusted: trusted.into_iter().collect(), rejected: 0 }
    }
}

impl Layer for IntegrityLayer {
    fn name(&self) -> &'static str {
        "integrity"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let me = ctx.me();
        let tag = match self.key {
            Some(key) => tag_for(key, me, &frame.bytes),
            // No key: a forged tag (distinguishable with overwhelming
            // probability by any verifier).
            None => 0xDEAD_BEEF_DEAD_BEEF,
        };
        let hdr = IntHeader { sender: me, tag };
        ctx.send_down(Frame::new(frame.dest, ps_wire::push_header(&hdr, frame.bytes)));
    }

    fn on_up(&mut self, _src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, payload)) = ps_wire::take_header::<IntHeader>(bytes) else {
            self.rejected += 1;
            return;
        };
        let Some(key) = self.key else {
            self.rejected += 1;
            return;
        };
        if !self.trusted.contains(&hdr.sender) || tag_for(key, hdr.sender, &payload) != hdr.tag {
            self.rejected += 1;
            return;
        }
        ctx.deliver_up(hdr.sender, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{Integrity, Property};

    const KEY: u64 = 0x5eed;

    #[test]
    fn header_roundtrip() {
        let h = IntHeader { sender: ProcessId(1), tag: 99 };
        assert_eq!(IntHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn trusted_group_traffic_flows_and_satisfies_integrity() {
        let sim = run_group(3, 1, p2p(100), 9, |_, group, _| {
            Stack::new(vec![Box::new(IntegrityLayer::new(KEY, group.iter().copied()))])
        });
        let tr = sim.app_trace();
        let trusted: Vec<ProcessId> = sim.group().to_vec();
        assert!(Integrity::new(trusted).holds(&tr));
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 27);
    }

    #[test]
    fn forged_messages_from_keyless_process_are_rejected() {
        // Process 2 lacks the key; its sends must not be delivered anywhere.
        let trusted = [ProcessId(0), ProcessId(1)];
        let sim = run_group(3, 2, p2p(100), 9, move |p, _, _| {
            let layer: Box<dyn Layer> = if trusted.contains(&p) {
                Box::new(IntegrityLayer::new(KEY, trusted))
            } else {
                Box::new(IntegrityLayer::untrusted(trusted))
            };
            Stack::new(vec![layer])
        });
        let tr = sim.app_trace();
        assert!(Integrity::new(trusted).holds(&tr));
        // No message from p2 was ever delivered.
        assert!(tr
            .iter()
            .filter(|e| e.is_deliver())
            .all(|e| e.message().id.sender != ProcessId(2)));
        // But p2 did send (3 of the 9 scheduled sends).
        assert_eq!(tr.iter().filter(|e| e.is_send()).count(), 9);
    }

    #[test]
    fn wrong_key_cannot_inject() {
        let trusted = [ProcessId(0), ProcessId(1)];
        let sim = run_group(2, 3, p2p(100), 4, move |p, _, _| {
            let key = if p == ProcessId(0) { KEY } else { KEY + 1 };
            Stack::new(vec![Box::new(IntegrityLayer::new(key, trusted))])
        });
        let tr = sim.app_trace();
        // Deliveries only where the key matches the sender's key — i.e.
        // self-deliveries; cross-deliveries fail verification.
        for e in tr.iter().filter(|e| e.is_deliver()) {
            if let ps_trace::Event::Deliver(p, m) = e {
                assert_eq!(*p, m.id.sender, "cross-key delivery leaked");
            }
        }
    }

    #[test]
    fn tampered_payload_detected() {
        let good = tag_for(KEY, ProcessId(0), b"hello");
        assert_ne!(good, tag_for(KEY, ProcessId(0), b"hellp"));
        assert_ne!(good, tag_for(KEY, ProcessId(1), b"hello"));
        assert_ne!(good, tag_for(KEY + 1, ProcessId(0), b"hello"));
    }
}
