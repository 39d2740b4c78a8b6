//! Properties of the headroom contract (ps-check): `prepend` is plain
//! concatenation whatever the handle's ownership state and reserve, it is
//! undone by `slice` or `advance`, it never changes what an earlier clone
//! or slice sees, the reserve is invisible to `Eq` / `Ord` / `Hash`, and
//! what a unique handle advanced past is reserve again.

use ps_bytes::{Bytes, BytesMut, HEADROOM};
use ps_check::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

static STATIC: [u8; 256] = {
    let mut a = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        a[i] = (i as u8).wrapping_mul(31).wrapping_add(7);
        i += 1;
    }
    a
};

/// A handle viewing exactly `payload` in the ownership state `kind`
/// selects, with `reserve` spare bytes in front of the content where the
/// state has a buffer to reserve them in. The second value keeps the
/// handle shared for as long as it lives.
fn handle(kind: u8, reserve: usize, payload: &[u8]) -> (Bytes, Option<Bytes>) {
    let framed = |tail: usize| {
        let mut v = vec![0xEE; reserve];
        v.extend_from_slice(payload);
        v.resize(v.len() + tail, 0xDD);
        Bytes::from(v)
    };
    match kind % 5 {
        // Uniquely owned, `reserve` bytes of headroom.
        0 => (framed(0).slice(reserve..), None),
        // Uniquely owned, built by the builder (HEADROOM in front).
        1 => {
            let mut m = BytesMut::with_capacity(payload.len());
            m.put_slice(payload);
            (m.freeze(), None)
        }
        // Shared with a clone.
        2 => {
            let b = framed(0).slice(reserve..);
            let keep = b.clone();
            (b, Some(keep))
        }
        // Static memory (content taken from `STATIC`, so `payload` is
        // ignored beyond its length).
        3 => {
            let len = payload.len().min(STATIC.len());
            (Bytes::from_static(&STATIC[..len]), None)
        }
        // A sub-slice of a larger buffer whose parent is still alive.
        _ => {
            let parent = framed(3);
            let b = parent.slice(reserve..reserve + payload.len());
            (b, Some(parent))
        }
    }
}

fn hash_of(b: &Bytes) -> u64 {
    let mut h = DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

props! {
    fn prepend_is_concatenation_and_slice_undoes_it(
        kind in arb::<u8>(),
        reserve in 0usize..2 * HEADROOM,
        header in vec_of(arb::<u8>(), 0..HEADROOM + 16),
        payload in vec_of(arb::<u8>(), 0..300),
    ) {
        let (b, _keep) = handle(kind, reserve, &payload);
        let content = b.to_vec();
        let framed = b.prepend(&header);
        assert_eq!(framed.len(), header.len() + content.len());
        assert_eq!(&framed[..header.len()], &header[..]);
        assert_eq!(&framed[header.len()..], &content[..]);
        assert_eq!(framed.slice(header.len()..), content);
    }

    fn earlier_clones_and_slices_never_change(
        kind in arb::<u8>(),
        reserve in 0usize..2 * HEADROOM,
        headers in vec_of(vec_of(arb::<u8>(), 0..40), 1..6),
        payload in vec_of(arb::<u8>(), 1..200),
        drop_keepalive in arb::<bool>(),
    ) {
        let (mut b, mut keep) = handle(kind, reserve, &payload);
        // Every handle taken on the way, with what it showed when taken.
        let mut witnesses: Vec<(Bytes, Vec<u8>)> = Vec::new();
        for (i, h) in headers.iter().enumerate() {
            witnesses.push((b.clone(), b.to_vec()));
            witnesses.push((b.slice(b.len() / 2..), b[b.len() / 2..].to_vec()));
            if drop_keepalive && i == 1 {
                // From here the handle may become unique again mid-chain.
                keep = None;
                witnesses.clear();
            }
            b = b.prepend(h);
        }
        for (seen, was) in &witnesses {
            assert_eq!(&seen[..], &was[..], "a handle taken before a prepend changed");
        }
        drop(keep);
        let expect: Vec<u8> = headers.iter().rev().flatten().copied().collect();
        assert_eq!(&b[..expect.len()], &expect[..]);
    }

    fn advance_is_slice_from_without_a_second_handle(
        kind in arb::<u8>(),
        reserve in 0usize..2 * HEADROOM,
        payload in vec_of(arb::<u8>(), 0..300),
        cut in arb::<usize>(),
    ) {
        let (mut b, _keep) = handle(kind, reserve, &payload);
        let n = cut % (b.len() + 1);
        let expect = b.slice(n..);
        b.advance(n);
        assert_eq!(b, expect);
        assert!(std::ptr::eq(b.as_slice(), expect.as_slice()), "the view moved, not the bytes");
    }

    fn advance_then_prepend_on_a_unique_handle_is_in_place(
        built in arb::<bool>(),
        reserve in 0usize..2 * HEADROOM,
        payload in vec_of(arb::<u8>(), 1..300),
        cut in arb::<usize>(),
        back in vec_of(arb::<u8>(), 0..300),
    ) {
        // Kinds 0 and 1: the two uniquely owned states.
        let (mut b, _none) = handle(u8::from(built), reserve, &payload);
        let n = cut % (b.len() + 1);
        b.advance(n);
        // A header no longer than what was advanced past fits where it was.
        let header = &back[..back.len().min(n)];
        let (at, tail) = (b.as_ptr(), b.to_vec());
        let pushed = b.prepend(header);
        assert!(std::ptr::eq(pushed[header.len()..].as_ptr(), at), "the tail must not have moved");
        assert_eq!(&pushed[..header.len()], header);
        assert_eq!(&pushed[header.len()..], &tail[..]);
    }

    fn a_clone_taken_before_advance_and_prepend_never_changes(
        kind in arb::<u8>(),
        reserve in 0usize..2 * HEADROOM,
        payload in vec_of(arb::<u8>(), 1..300),
        cut in arb::<usize>(),
        header in vec_of(arb::<u8>(), 0..40),
    ) {
        let (mut b, _keep) = handle(kind, reserve, &payload);
        let (seen, was) = (b.clone(), b.to_vec());
        b.advance(cut % (b.len() + 1));
        let pushed = b.prepend(&header);
        assert_eq!(&seen[..], &was[..]);
        assert_eq!(&pushed[..header.len()], &header[..]);
    }

    fn eq_ord_hash_ignore_the_reserve(
        kinds in (arb::<u8>(), arb::<u8>()),
        reserves in (0usize..2 * HEADROOM, 0usize..2 * HEADROOM),
        payload in vec_of(arb::<u8>(), 0..64),
        other in vec_of(arb::<u8>(), 0..64),
    ) {
        // Kind 3 substitutes static content; give both sides the same.
        let payload = if kinds.0 % 5 == 3 || kinds.1 % 5 == 3 {
            STATIC[..payload.len()].to_vec()
        } else {
            payload
        };
        let (a, _ka) = handle(kinds.0, reserves.0, &payload);
        let (b, _kb) = handle(kinds.1, reserves.1, &payload);
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&a), hash_of(&b));
        // A consumed reserve is as invisible as a fresh one.
        let pushed = a.prepend(b"hdr").slice(3..);
        assert_eq!(pushed, b);
        assert_eq!(hash_of(&pushed), hash_of(&b));
        let o = Bytes::from(other.clone());
        assert_eq!(pushed.cmp(&o), payload.as_slice().cmp(other.as_slice()));
    }
}
