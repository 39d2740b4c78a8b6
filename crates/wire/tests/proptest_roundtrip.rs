//! Property-based round-trip tests for the wire codec (ps-check).

use ps_bytes::Bytes;
use ps_check::prelude::*;
use ps_wire::{pop_header, push_header, take_header, Decoder, Encoder, Wire, WireError};

/// A handle viewing exactly `payload`, in one of the ownership states a
/// frame can reach a layer in: uniquely owned with `reserve` spare bytes
/// in front, shared with a clone, a sub-slice of a live larger frame, or
/// static memory. The second value keeps it shared while it lives.
fn handle(kind: u8, reserve: usize, payload: &[u8]) -> (Bytes, Option<Bytes>) {
    let mut v = vec![0xEE; reserve];
    v.extend_from_slice(payload);
    v.extend_from_slice(b"tail");
    let parent = Bytes::from(v);
    let b = parent.slice(reserve..reserve + payload.len());
    match kind % 4 {
        0 => (b, None),
        1 => (b.clone(), Some(b)),
        2 => (b, Some(parent)),
        // Leaked on purpose: a few hundred bytes per case, test-only.
        _ => (Bytes::from_static(Box::leak(payload.to_vec().into_boxed_slice())), None),
    }
}

/// `inner` lies inside `outer`'s memory.
fn within(inner: &[u8], outer: &[u8]) -> bool {
    let (o, i) = (outer.as_ptr_range(), inner.as_ptr_range());
    inner.is_empty() || (o.start <= i.start && i.end <= o.end)
}

props! {
    fn varint_roundtrip(v in arb::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(v);
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        assert_eq!(dec.get_varint().unwrap(), v);
        assert!(dec.is_empty());
    }

    fn varint_is_minimal_length(v in arb::<u64>()) {
        let mut enc = Encoder::new();
        enc.put_varint(v);
        let expected = if v == 0 { 1 } else { (64 - v.leading_zeros()).div_ceil(7) as usize };
        assert_eq!(enc.len(), expected);
    }

    fn bytes_roundtrip(data in vec_of(arb::<u8>(), 0..2048)) {
        let mut enc = Encoder::new();
        enc.put_bytes(&data);
        let b = enc.finish();
        let mut dec = Decoder::new(&b);
        assert_eq!(dec.get_bytes().unwrap(), &data[..]);
    }

    fn string_roundtrip(s in strings(0..64)) {
        let v = s.clone();
        let b = v.to_bytes();
        assert_eq!(String::from_bytes(&b).unwrap(), s);
    }

    fn vec_of_tuples_roundtrip(v in vec_of((arb::<u64>(), arb::<bool>()), 0..64)) {
        let b = v.to_bytes();
        assert_eq!(Vec::<(u64, bool)>::from_bytes(&b).unwrap(), v);
    }

    fn header_framing_roundtrip(h in arb::<u64>(), payload in vec_of(arb::<u8>(), 0..512)) {
        let framed = push_header(&h, Bytes::from(payload.clone()));
        let (got_h, got_p) = pop_header::<u64>(&framed).unwrap();
        assert_eq!(got_h, h);
        assert_eq!(&got_p[..], &payload[..]);
    }

    fn push_pop_is_identity_in_every_ownership_state(
        h in (arb::<u64>(), strings(0..24), arb::<bool>()),
        kind in arb::<u8>(),
        reserve in 0usize..100,
        payload in vec_of(arb::<u8>(), 0..512),
    ) {
        let (b, _keep) = handle(kind, reserve, &payload);
        let framed = push_header(&h, b);
        // The frame is header ++ payload, byte for byte.
        let hdr = h.to_bytes();
        assert_eq!(&framed[..hdr.len()], &hdr[..]);
        assert_eq!(&framed[hdr.len()..], &payload[..]);
        let (got_h, got_p) = pop_header::<(u64, String, bool)>(&framed).unwrap();
        assert_eq!(got_h, h);
        assert_eq!(got_p, payload);
        // (A frame of up to 22 bytes may live in its handle, where a slice
        // is a copy of the handle and there is no buffer to lie inside.)
        assert!(
            framed.len() <= 22 || within(&got_p, &framed),
            "a popped payload is a slice of its frame"
        );
    }

    fn nested_headers_survive_sharing_midway(
        hs in vec_of(arb::<u64>(), 1..6),
        share_at in 0usize..6,
        payload in vec_of(arb::<u8>(), 0..256),
    ) {
        // A stack of layers pushing in turn; one of them (a retaining
        // layer) keeps a clone of what it sent down.
        let mut frame = Encoder::new();
        frame.put_raw(&payload);
        let mut frame = frame.finish();
        let mut retained = None;
        for (i, h) in hs.iter().enumerate() {
            frame = push_header(h, frame);
            if i == share_at {
                retained = Some((frame.clone(), frame.to_vec()));
            }
        }
        if let Some((kept, was)) = &retained {
            assert_eq!(&kept[..], &was[..], "a retained frame changed under later pushes");
        }
        for h in hs.iter().rev() {
            let (got, rest) = pop_header::<u64>(&frame).unwrap();
            assert_eq!(got, *h);
            frame = rest;
        }
        assert_eq!(frame, payload);
    }

    fn decoding_arbitrary_frames_never_panics_and_slices_stay_inside(
        data in vec_of(arb::<u8>(), 0..256),
        kind in arb::<u8>(),
    ) {
        let (frame, _keep) = handle(kind, 3, &data);
        if let Ok((_, rest)) = pop_header::<u64>(&frame) {
            assert!(within(&rest, &frame));
        }
        if let Ok((_, rest)) = pop_header::<(u8, String)>(&frame) {
            assert!(within(&rest, &frame));
        }
        if let Ok((v, rest)) = pop_header::<Vec<Bytes>>(&frame) {
            assert!(within(&rest, &frame));
            assert!(v.iter().all(|b| within(b, &frame)));
        }
        if let Ok(Some(b)) = Option::<Bytes>::from_frame(&frame) {
            assert!(within(&b, &frame));
        }
        let mut dec = Decoder::over(&frame);
        while let Ok(b) = dec.take_bytes() {
            assert!(within(&b, &frame));
            if dec.is_empty() {
                break;
            }
        }
        let rest = dec.rest();
        assert!(within(&rest, &frame));
        assert!(dec.is_empty());
        // The copying decoder agrees with the slicing one.
        assert_eq!(Vec::<Bytes>::from_bytes(&data).ok(), Vec::<Bytes>::from_frame(&frame).ok());
    }

    fn taking_a_header_is_popping_it_in_every_ownership_state(
        data in vec_of(arb::<u8>(), 0..256),
        kind in arb::<u8>(),
        reserve in 0usize..100,
    ) {
        /// Pops `H` both ways off a frame over `data` and compares: the
        /// same header, the same payload bytes at the same address, or
        /// the same error.
        fn agree<H: Wire + PartialEq + std::fmt::Debug>(kind: u8, reserve: usize, data: &[u8]) {
            let (frame, _keep) = handle(kind, reserve, data);
            let popped: Result<(H, Bytes), WireError> = pop_header(&frame);
            let at = frame.as_ptr_range();
            match (take_header::<H>(frame), popped) {
                (Ok((h, rest)), Ok((ph, prest))) => {
                    assert_eq!(h, ph);
                    assert_eq!(rest, prest);
                    assert!(std::ptr::eq(rest.as_slice(), prest.as_slice()));
                    assert_eq!(rest.as_ptr_range().end, at.end, "the payload runs to the frame's end");
                }
                (Err(e), Err(pe)) => assert_eq!(e, pe),
                (took, popped) => panic!("take {took:?} but pop {popped:?}"),
            }
        }
        agree::<u64>(kind, reserve, &data);
        agree::<(u8, String)>(kind, reserve, &data);
        agree::<Vec<Bytes>>(kind, reserve, &data);
        agree::<Option<(u16, bool)>>(kind, reserve, &data);
    }

    fn decoder_never_panics_on_garbage(data in vec_of(arb::<u8>(), 0..256)) {
        // Whatever the bytes, decoding assorted types must return, not panic.
        let _ = u64::from_bytes(&data);
        let _ = String::from_bytes(&data);
        let _ = Vec::<u32>::from_bytes(&data);
        let _ = Option::<(u8, u64)>::from_bytes(&data);
        let mut dec = Decoder::new(&data);
        let _ = dec.get_varint();
    }
}
