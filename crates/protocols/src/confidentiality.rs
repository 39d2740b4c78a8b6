use crate::mac::{keyed_hash, keystream_xor};
use ps_bytes::Bytes;
use ps_stack::{Frame, Layer, LayerCtx};
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, Wire, WireError};

/// Confidentiality: "non-trusted processes cannot see messages from
/// trusted processes" (Table 1).
///
/// Downward payloads are enciphered with a keystream under a per-message
/// nonce, with an enciphered integrity checksum so keyless receivers cannot
/// even produce plausible garbage — they detect the checksum mismatch and
/// drop. Holders of the group key decrypt and deliver.
///
/// The cipher is the toy keystream of [`crate::mac`] — it simulates the
/// property, it is not cryptography (see DESIGN.md).
#[derive(Debug)]
pub struct ConfidentialityLayer {
    key: Option<u64>,
    nonce_counter: u64,
    /// Frames this process failed to decrypt (observable).
    pub undecryptable: u64,
}

#[derive(Debug, PartialEq)]
struct ConfHeader {
    nonce: u64,
}

impl Wire for ConfHeader {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.nonce);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ConfHeader { nonce: dec.get_u64()? })
    }
}

const CHECK_LABEL: u8 = 0x33;

impl ConfidentialityLayer {
    /// Creates a trusted instance holding the group key.
    pub fn new(key: u64) -> Self {
        Self { key: Some(key), nonce_counter: 0, undecryptable: 0 }
    }

    /// Creates a keyless instance: everything it receives on this channel
    /// is opaque to it, and its own sends are rejected by key holders.
    pub fn keyless() -> Self {
        Self { key: None, nonce_counter: 0, undecryptable: 0 }
    }
}

impl Layer for ConfidentialityLayer {
    fn name(&self) -> &'static str {
        "confidentiality"
    }

    fn on_down(&mut self, frame: Frame, ctx: &mut LayerCtx<'_>) {
        let nonce = (u64::from(ctx.me().0) << 48) | self.nonce_counter;
        self.nonce_counter += 1;
        // Envelope: checksum(payload) ++ payload, then enciphered.
        let key = self.key.unwrap_or(0x0bad_0bad); // keyless: wrong key
        let check = keyed_hash(key, CHECK_LABEL, &frame.bytes);
        let mut envelope = Vec::with_capacity(8 + frame.bytes.len());
        envelope.extend_from_slice(&check.to_le_bytes());
        envelope.extend_from_slice(&frame.bytes);
        keystream_xor(key, nonce, &mut envelope);
        let hdr = ConfHeader { nonce };
        ctx.send_down(Frame::new(frame.dest, ps_wire::push_header(&hdr, Bytes::from(envelope))));
    }

    fn on_up(&mut self, src: ProcessId, bytes: Bytes, ctx: &mut LayerCtx<'_>) {
        let Ok((hdr, sealed)) = ps_wire::take_header::<ConfHeader>(bytes) else {
            self.undecryptable += 1;
            return;
        };
        let Some(key) = self.key else {
            self.undecryptable += 1;
            return;
        };
        if sealed.len() < 8 {
            self.undecryptable += 1;
            return;
        }
        let mut envelope = sealed.to_vec();
        keystream_xor(key, hdr.nonce, &mut envelope);
        let (check_bytes, payload) = envelope.split_at(8);
        let declared = u64::from_le_bytes(check_bytes.try_into().expect("8 bytes"));
        if keyed_hash(key, CHECK_LABEL, payload) != declared {
            self.undecryptable += 1;
            return;
        }
        ctx.deliver_up(src, Bytes::copy_from_slice(payload));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{p2p, run_group};
    use ps_stack::{Driver, Stack};
    use ps_trace::props::{Confidentiality, Property};

    const KEY: u64 = 0xfeed;

    #[test]
    fn keyed_group_communicates() {
        let sim = run_group(3, 1, p2p(100), 6, |_, _, _| {
            Stack::new(vec![Box::new(ConfidentialityLayer::new(KEY))])
        });
        let tr = sim.app_trace();
        assert_eq!(tr.iter().filter(|e| e.is_deliver()).count(), 18);
    }

    #[test]
    fn keyless_process_sees_nothing() {
        // p2 has no key: the Confidentiality property holds with trusted =
        // {p0, p1} because p2 never delivers their messages.
        let sim = run_group(3, 2, p2p(100), 9, |p, _, _| {
            let layer: Box<dyn Layer> = if p == ProcessId(2) {
                Box::new(ConfidentialityLayer::keyless())
            } else {
                Box::new(ConfidentialityLayer::new(KEY))
            };
            Stack::new(vec![layer])
        });
        let tr = sim.app_trace();
        let trusted = [ProcessId(0), ProcessId(1)];
        assert!(Confidentiality::new(trusted).holds(&tr));
        // p2 delivered nothing at all.
        assert!(tr.delivered_by(ProcessId(2)).is_empty());
        // The trusted pair still communicates.
        assert!(!tr.delivered_by(ProcessId(0)).is_empty());
    }

    #[test]
    fn keyless_sender_is_rejected_by_key_holders() {
        let sim = run_group(2, 3, p2p(100), 4, |p, _, _| {
            let layer: Box<dyn Layer> = if p == ProcessId(1) {
                Box::new(ConfidentialityLayer::keyless())
            } else {
                Box::new(ConfidentialityLayer::new(KEY))
            };
            Stack::new(vec![layer])
        });
        let tr = sim.app_trace();
        // Nothing from p1 is delivered by p0 (checksum fails under KEY).
        assert!(tr.delivered_by(ProcessId(0)).iter().all(|m| m.id.sender != ProcessId(1)));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        // Observe the wire: sealed bytes must not contain the payload.
        let mut layer = ConfidentialityLayer::new(KEY);
        struct CapEnv {
            sent: Vec<Bytes>,
            rng: ps_simnet::DetRng,
        }
        impl ps_stack::StackEnv for CapEnv {
            fn me(&self) -> ProcessId {
                ProcessId(0)
            }
            fn group(&self) -> &[ProcessId] {
                &[ProcessId(0), ProcessId(1)]
            }
            fn now(&self) -> ps_simnet::SimTime {
                ps_simnet::SimTime::ZERO
            }
            fn rng(&mut self) -> &mut ps_simnet::DetRng {
                &mut self.rng
            }
            fn transmit(&mut self, frame: Frame) {
                self.sent.push(frame.bytes);
            }
            fn deliver(&mut self, _: ProcessId, _: ps_trace::Message) {}
            fn set_timer(&mut self, _: ps_simnet::SimTime, _: ps_stack::LayerId, _: u32) {}
        }
        let mut env = CapEnv { sent: Vec::new(), rng: ps_simnet::DetRng::new(0) };
        let mut stack = Stack::new(vec![Box::new(std::mem::replace(
            &mut layer,
            ConfidentialityLayer::new(KEY),
        ))]);
        let secret = b"TOP-SECRET-PAYLOAD";
        let msg = ps_trace::Message::new(ProcessId(0), 1, Bytes::from_static(secret));
        stack.send(&msg, &mut env);
        let wire = &env.sent[0];
        let window_found = wire.windows(secret.len()).any(|w| w == secret);
        assert!(!window_found, "plaintext leaked onto the wire");
    }
}
