use crate::{Decoder, Encoder, Wire, WireError};
use ps_bytes::Bytes;

/// Prepends `header` to `payload`, producing the frame a layer passes down
/// the stack.
///
/// This is the Lego-block composition primitive of the Horus model: each
/// layer treats the payload as opaque bytes and contributes only its own
/// header.
///
/// # Examples
///
/// ```
/// use ps_bytes::Bytes;
/// use ps_wire::{pop_header, push_header};
///
/// # fn main() -> Result<(), ps_wire::WireError> {
/// let framed = push_header(&42u32, Bytes::from_static(b"data"));
/// let (hdr, payload) = pop_header::<u32>(&framed)?;
/// assert_eq!(hdr, 42);
/// assert_eq!(&payload[..], b"data");
/// # Ok(())
/// # }
/// ```
///
/// The header is encoded on the stack and written into the reserve in
/// front of `payload` ([`Bytes::prepend`]): no allocation and no payload
/// copy when `payload` is uniquely owned; otherwise one allocation — for
/// the headers alone, beside the shared payload, once the frame is longer
/// than that costs, else for a copy — and none either way while the frame
/// is small enough to live in its handle (an acknowledgement, a token: a
/// header on nothing).
pub fn push_header<H: Wire>(header: &H, payload: Bytes) -> Bytes {
    let mut enc = Encoder::new();
    header.encode(&mut enc);
    payload.prepend(enc.as_slice())
}

/// Splits a frame produced by [`push_header`] back into header and
/// payload, consuming the frame: the payload *is* the frame's handle, moved
/// past the header ([`Bytes::advance`]).
///
/// No reference count moves, and a frame that was its buffer's only handle
/// comes back as a payload that still is — so a layer that relays the
/// payload pushes its own header in place, into the bytes the popped one
/// occupied. This is what a layer's `on_up`, which owns its bytes, calls.
///
/// # Errors
///
/// Returns any [`WireError`] produced while decoding the header; the payload
/// itself is never inspected. On a frame whose headers sit beside its body
/// ([`Bytes::parts`]) the header is decoded over the headers' part, so a
/// header must decode from its own bytes (none reads to the end of its
/// input); one that runs past that part is read, as the flat frame's would
/// be, over the two parts joined.
pub fn take_header<H: Wire>(mut frame: Bytes) -> Result<(H, Bytes), WireError> {
    let mut dec = Decoder::over_head(&frame);
    let header = match H::decode(&mut dec) {
        Ok(header) => header,
        Err(_) if !frame.parts()[1].is_empty() => {
            dec = Decoder::over(&frame);
            H::decode(&mut dec)?
        }
        Err(e) => return Err(e),
    };
    let at = dec.position();
    frame.advance(at);
    Ok((header, frame))
}

/// [`take_header`] for a caller that keeps the frame: the payload is a
/// second handle onto the frame's buffer (an O(1) slice that keeps it
/// alive and shares it with every other slice of the same frame).
///
/// # Errors
///
/// As [`take_header`].
pub fn pop_header<H: Wire>(frame: &Bytes) -> Result<(H, Bytes), WireError> {
    take_header(frame.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_headers_pop_in_reverse_order() {
        let app = Bytes::from_static(b"app");
        let l2 = push_header(&7u8, app.clone());
        let l1 = push_header(&String::from("outer"), l2);

        let (h1, rest1) = pop_header::<String>(&l1).unwrap();
        assert_eq!(h1, "outer");
        let (h2, rest2) = pop_header::<u8>(&rest1).unwrap();
        assert_eq!(h2, 7);
        assert_eq!(rest2, app);
    }

    #[test]
    fn empty_payload_supported() {
        let framed = push_header(&1u8, Bytes::new());
        let (h, payload) = pop_header::<u8>(&framed).unwrap();
        assert_eq!(h, 1);
        assert!(payload.is_empty());
    }

    #[test]
    fn taking_keeps_a_unique_frame_unique() {
        // A payload the handle cannot hold itself: the frame is a buffer.
        const PAYLOAD: &[u8] = b"a payload of thirty-two bytes ...";
        let framed = push_header(&7u64, Bytes::copy_from_slice(PAYLOAD));
        let at = framed[8..].as_ptr();
        let (h, payload) = take_header::<u64>(framed).unwrap();
        assert_eq!((h, &payload[..]), (7, PAYLOAD));
        // The relay's header lands where the popped one was.
        let relayed = push_header(&9u64, payload);
        assert!(std::ptr::eq(relayed[8..].as_ptr(), at));
    }

    #[test]
    fn corrupt_header_reported() {
        let err = take_header::<u64>(Bytes::from_static(&[1, 2])).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
        let err = pop_header::<u64>(&Bytes::from_static(&[1, 2])).unwrap_err();
        assert!(matches!(err, WireError::UnexpectedEof { .. }));
    }
}
