//! The on-the-wire datagram format.
//!
//! Inside the simulator a [`Frame`](ps_stack::Frame)'s bytes move as an
//! in-memory handle and the engine knows the sender; on a real socket the
//! bytes *are* the message, so the sender identity must ride along. Each
//! UDP datagram carries one frame wrapped in a minimal `ps-wire` header:
//!
//! ```text
//! +--------+---------+-------------+------------------------+
//! | magic  | version | src varint  | payload (len-prefixed) |
//! | 1 byte | 1 byte  | 1-3 bytes   | varint len + bytes     |
//! +--------+---------+-------------+------------------------+
//! ```
//!
//! The payload length is redundant with the datagram length — UDP
//! preserves message boundaries — but encoding it makes truncation
//! detectable ([`decode`] rejects short reads and trailing garbage) and
//! leaves room to batch multiple frames per datagram later without a
//! format break. Process ids are varints, so the whole header is 4 bytes
//! for groups under 128 processes — small groups pay five bytes of
//! overhead, not a fixed worst case.
//!
//! A node sends from a buffer it owns: [`encode_into`] writes the
//! envelope and then the frame's bytes into it, so a datagram costs a
//! copy into memory that already exists and no allocation — also when a
//! layer keeps the frame for retransmission, where prepending to the
//! shared frame would copy it into a fresh buffer. On the way in,
//! [`decode`] copies the payload out of the receive buffer once, at its
//! exact size (nothing at all for a payload a [`Bytes`] handle holds
//! inline).

use ps_bytes::Bytes;
use ps_trace::ProcessId;
use ps_wire::{Decoder, Encoder, WireError};

/// First byte of every ps-net datagram.
pub const MAGIC: u8 = 0xA7;

/// Wire-format version; bump on any incompatible change.
pub const VERSION: u8 = 1;

/// The envelope in front of a `len`-byte payload from `src`: the one
/// writer of the header both encoders put on the wire. It fits an
/// [`Encoder`]'s on-stack buffer, so writing it allocates nothing.
fn envelope(src: ProcessId, len: usize) -> Encoder {
    let mut e = Encoder::new();
    e.put_u8(MAGIC);
    e.put_u8(VERSION);
    e.put_varint(u64::from(src.0));
    e.put_varint(len as u64);
    e
}

/// Wraps one frame payload from `src` into a datagram: the envelope is
/// prepended to the frame like any layer's header
/// ([`Bytes::prepend`]). The caller keeps its handle on `payload`, so
/// this copies the frame; the node loop sends through [`encode_into`]
/// instead, which copies it into a buffer the node already owns.
pub fn encode(src: ProcessId, payload: &Bytes) -> Bytes {
    payload.clone().prepend(envelope(src, payload.len()).as_slice())
}

/// Writes the datagram [`encode`] builds into `out`, replacing what it held:
/// the envelope, then `payload`'s [parts](Bytes::parts). Once `out` has room
/// for the datagram this allocates nothing, whoever else holds the frame.
pub fn encode_into(src: ProcessId, payload: &Bytes, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(envelope(src, payload.len()).as_slice());
    payload.parts().iter().for_each(|part| out.extend_from_slice(part));
}

/// Unwraps a received datagram into `(src, payload)`.
///
/// Rejects bad magic, unknown versions, out-of-range process ids,
/// truncated payloads, and trailing bytes — a real network can hand the
/// socket anything, and a malformed datagram must not take the node down.
pub fn decode(datagram: &[u8]) -> Result<(ProcessId, Bytes), WireError> {
    let mut d = Decoder::new(datagram);
    let magic = d.get_u8()?;
    if magic != MAGIC {
        return Err(WireError::InvalidTag { tag: u64::from(magic), ty: "dgram magic" });
    }
    let version = d.get_u8()?;
    if version != VERSION {
        return Err(WireError::InvalidTag { tag: u64::from(version), ty: "dgram version" });
    }
    let src = d.get_varint()?;
    if src > u64::from(u16::MAX) {
        return Err(WireError::InvalidTag { tag: src, ty: "dgram src process id" });
    }
    let payload = d.take_bytes()?;
    d.finish()?;
    Ok((ProcessId(src as u16), payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_src_and_payload() {
        let payload = Bytes::copy_from_slice(b"frame body");
        let wire = encode(ProcessId(7), &payload);
        let (src, got) = decode(&wire).unwrap();
        assert_eq!(src, ProcessId(7));
        assert_eq!(got.as_ref(), payload.as_ref());
    }

    #[test]
    fn encode_into_writes_what_encode_builds() {
        let mut out = vec![0xEE; 3];
        for (src, len) in [(0, 0), (3, 22), (300, 1400), (u16::MAX, 60)] {
            let payload = Bytes::copy_from_slice(&vec![0x5A; len]);
            encode_into(ProcessId(src), &payload, &mut out);
            assert_eq!(out, encode(ProcessId(src), &payload).as_ref(), "src {src}, {len} bytes");
        }
    }

    #[test]
    fn small_group_header_is_five_bytes() {
        let wire = encode(ProcessId(3), &Bytes::copy_from_slice(b"x"));
        // magic + version + 1-byte src varint + 1-byte len varint + 1 payload byte.
        assert_eq!(wire.len(), 5);
    }

    #[test]
    fn large_process_ids_roundtrip() {
        let wire = encode(ProcessId(u16::MAX), &Bytes::copy_from_slice(b""));
        assert_eq!(decode(&wire).unwrap().0, ProcessId(u16::MAX));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = encode(ProcessId(0), &Bytes::copy_from_slice(b"y")).to_vec();
        wire[0] ^= 0xFF;
        assert!(decode(&wire).is_err());
    }

    #[test]
    fn unknown_version_rejected() {
        let mut wire = encode(ProcessId(0), &Bytes::copy_from_slice(b"y")).to_vec();
        wire[1] = VERSION + 1;
        assert!(decode(&wire).is_err());
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let wire = encode(ProcessId(1), &Bytes::copy_from_slice(b"hello")).to_vec();
        assert!(decode(&wire[..wire.len() - 1]).is_err(), "truncated payload");
        let mut extra = wire.clone();
        extra.push(0);
        assert!(decode(&extra).is_err(), "trailing garbage");
        assert!(decode(&[]).is_err(), "empty datagram");
    }
}
