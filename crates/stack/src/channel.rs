//! The MULTIPLEX component of the paper's Figure 1.
//!
//! The switching protocol needs "a private communication channel for
//! itself, while each underlying protocol also needs a private channel".
//! A [`ChannelId`] byte prepended to every frame provides exactly that:
//! one physical transport carries several logical protocol channels.

use ps_bytes::Bytes;
use ps_wire::WireError;

/// Logical channel number multiplexed over one transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u8);

impl ChannelId {
    /// Conventional channel for switch-protocol control traffic.
    pub const CONTROL: ChannelId = ChannelId(0);
    /// Conventional channel for the first underlying protocol.
    pub const PROTO_A: ChannelId = ChannelId(1);
    /// Conventional channel for the second underlying protocol.
    pub const PROTO_B: ChannelId = ChannelId(2);
}

/// Tags `payload` with a channel id: one byte in front, in the payload's
/// reserve where it has room.
pub fn mux(channel: ChannelId, payload: Bytes) -> Bytes {
    payload.prepend(&[channel.0])
}

/// Splits a tagged frame back into channel id and payload (the frame's
/// own handle, moved past the tag).
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEof`] on an empty frame.
pub fn demux(mut frame: Bytes) -> Result<(ChannelId, Bytes), WireError> {
    let [head, body] = frame.parts();
    let Some(&tag) = head.first().or(body.first()) else {
        return Err(WireError::UnexpectedEof { needed: 1, remaining: 0 });
    };
    frame.advance(1);
    Ok((ChannelId(tag), frame))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux_demux_roundtrip() {
        let framed = mux(ChannelId::PROTO_B, Bytes::from_static(b"payload"));
        let (ch, payload) = demux(framed).unwrap();
        assert_eq!(ch, ChannelId::PROTO_B);
        assert_eq!(&payload[..], b"payload");
    }

    #[test]
    fn distinct_conventional_channels() {
        assert_ne!(ChannelId::CONTROL, ChannelId::PROTO_A);
        assert_ne!(ChannelId::PROTO_A, ChannelId::PROTO_B);
    }

    #[test]
    fn demux_empty_frame_errors() {
        assert!(demux(Bytes::new()).is_err());
    }
}
