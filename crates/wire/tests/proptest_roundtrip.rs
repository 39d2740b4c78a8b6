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

/// `bytes` cut at `cut` into headers beside a body: `bytes[..cut]` pushed
/// onto a handle on the rest in the ownership state `kind` selects — a
/// split frame when that handle is shared and the result is long enough,
/// the flat frame when it is unique — and the result shared with a clone
/// when `shared`. The vector keeps what must stay alive.
fn split_at(bytes: &[u8], cut: usize, kind: u8, shared: bool) -> (Bytes, Vec<Bytes>) {
    let (body, keep) = handle(kind, 8, &bytes[cut..]);
    let frame = body.prepend(&bytes[..cut]);
    let keep = keep.into_iter().chain(shared.then(|| frame.clone())).collect();
    (frame, keep)
}

/// Each part of `inner` lies inside the memory of one of `outer`'s parts:
/// a slice of a frame, never a copy (a split frame's body is its own).
fn within(inner: &Bytes, outer: &Bytes) -> bool {
    inner.parts().iter().all(|part| {
        let i = part.as_ptr_range();
        part.is_empty()
            || outer.parts().iter().any(|o| {
                let o = o.as_ptr_range();
                o.start <= i.start && i.end <= o.end
            })
    })
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

    fn popping_a_split_frame_is_popping_its_flat_frame(
        headers in ((arb::<u64>(), strings(0..24), arb::<bool>()), arb::<u64>()),
        payload in vec_of(arb::<u8>(), 0..300),
        garbage in vec_of(arb::<u8>(), 81..300),
        cuts in (arb::<usize>(), arb::<usize>()),
        ways in (arb::<u8>(), arb::<bool>()),
    ) {
        /// Takes `H` off `frame` and off the flat frame over the same
        /// bytes: the same header and payload bytes, or the same error.
        fn agree<H: Wire + PartialEq + std::fmt::Debug>(frame: Bytes, flat: &Bytes) -> Option<Bytes> {
            let popped: Result<(H, Bytes), WireError> = pop_header(flat);
            match (take_header::<H>(frame), popped) {
                (Ok((h, rest)), Ok((fh, frest))) => {
                    assert_eq!(h, fh);
                    assert_eq!(rest, frest);
                    assert_eq!(rest.parts().concat(), frest.to_vec());
                    Some(rest)
                }
                (Err(e), Err(fe)) => {
                    assert_eq!(e, fe);
                    None
                }
                (took, popped) => panic!("split {took:?} but flat {popped:?}"),
            }
        }
        let ((h1, h2), (kind, shared)) = (headers, ways);
        // Two real headers on a payload, cut anywhere in the first 81
        // bytes: inside a header (which then runs past the headers'
        // part) or inside the payload (which then starts among them).
        let mut bytes = h1.to_bytes().to_vec();
        bytes.extend_from_slice(&h2.to_bytes());
        bytes.extend_from_slice(&payload);
        bytes.resize(bytes.len().max(81), 0x5A);
        let cut = cuts.0 % 81;
        let flat = Bytes::from(bytes.clone());
        let (frame, _keep) = split_at(&bytes, cut, kind, shared);
        assert!(kind % 4 == 0 || !frame.parts()[1].is_empty(), "a push onto a shared body splits");
        assert_eq!(frame, flat);
        let rest = agree::<(u64, String, bool)>(frame, &flat).expect("a real header");
        let flat_rest = flat.slice(bytes.len() - rest.len()..);
        let rest = agree::<u64>(rest, &flat_rest).expect("a real header");
        assert_eq!(rest.parts().concat(), bytes[bytes.len() - rest.len()..]);
        // Arbitrary bytes, cut anywhere a split can be: every pop agrees,
        // errors included.
        let cut = cuts.1 % 81;
        let flat = Bytes::from(garbage.clone());
        let split = || split_at(&garbage, cut, kind, shared);
        agree::<u64>(split().0, &flat);
        agree::<(u8, String)>(split().0, &flat);
        agree::<Vec<Bytes>>(split().0, &flat);
        agree::<Option<(u16, bool)>>(split().0, &flat);
        assert_eq!(Vec::<Bytes>::from_frame(&split().0), Vec::<Bytes>::from_frame(&flat));
        let mut dec = Decoder::over(&flat);
        let (frame, _keep) = split();
        let mut split_dec = Decoder::over(&frame);
        loop {
            let taken = dec.take_bytes();
            assert_eq!(split_dec.take_bytes(), taken);
            if taken.is_err() {
                break;
            }
        }
        assert_eq!(split_dec.rest(), dec.rest());
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
