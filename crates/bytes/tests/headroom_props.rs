//! Properties of the headroom contract (ps-check): `prepend` is plain
//! concatenation whatever the handle's ownership state and reserve, it is
//! undone by `slice` or `advance`, it never changes what an earlier clone
//! or slice sees, the reserve is invisible to `Eq` / `Ord` / `Hash`, and
//! what a unique handle advanced past is reserve again. And of small
//! frames: whether a value lives in its handle or in a buffer shows in no
//! operation's result. And of split frames — headers beside a body: cut
//! anywhere, held any way, a split is its flat frame to every operation.

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

/// Handles viewing exactly `content`, one per way a value can be held:
/// in the handle (built there, with `pad` bytes of its room advanced past,
/// or sliced short of its end), in a buffer (unique, built by the builder,
/// shared, sliced out of a larger one) and in static memory. The second
/// value keeps a handle shared while it lives. Content longer than a
/// handle holds makes the first three buffers too — the point is that
/// nothing below can tell.
fn every_way_to_hold(content: &[u8], pad: usize) -> Vec<(Bytes, Option<Bytes>)> {
    let padded: Vec<u8> = std::iter::repeat_n(0xEE, pad).chain(content.iter().copied()).collect();
    let mut advanced = Bytes::copy_from_slice(&padded);
    advanced.advance(pad);
    let tailed: Vec<u8> = content.iter().copied().chain(std::iter::repeat_n(0xDD, pad)).collect();
    let mut held = vec![
        (Bytes::new().prepend(content), None),
        (advanced, None),
        (Bytes::copy_from_slice(&tailed).slice(..content.len()), None),
        // Leaked on purpose: at most 64 bytes per case, test-only.
        (Bytes::from_static(Box::leak(content.to_vec().into_boxed_slice())), None),
    ];
    // The buffer-backed states of `handle` (3 is its static one, with
    // content of its own).
    held.extend([0, 1, 2, 4].map(|kind| handle(kind, pad, content)));
    held
}

/// Everything a caller can learn from a handle without changing it.
fn observed(b: &Bytes) -> (Vec<u8>, usize, bool, String, u64, Vec<u8>) {
    let by_ref: Vec<u8> = b.into_iter().copied().collect();
    (b.to_vec(), b.len(), b.is_empty(), format!("{b:?}"), hash_of(b), by_ref)
}

/// A handle on `body` that is not its buffer's only one: shared with a
/// clone, in static memory, or a slice of a larger live buffer. The second
/// value keeps it shared while it lives.
fn shared_body(kind: u8, body: &[u8]) -> (Bytes, Option<Bytes>) {
    match kind % 3 {
        0 => {
            let b = Bytes::from(body.to_vec());
            (b.clone(), Some(b))
        }
        // Leaked on purpose: a few hundred bytes per case, test-only.
        1 => (Bytes::from_static(Box::leak(body.to_vec().into_boxed_slice())), None),
        _ => {
            let mut v = vec![0xEE; 5];
            v.extend_from_slice(body);
            v.extend_from_slice(b"tail");
            let parent = Bytes::from(v);
            (parent.slice(5..5 + body.len()), Some(parent))
        }
    }
}

/// `head ++ body` as a split frame: `head`, pushed in `steps` pieces, beside
/// a shared handle on `body` (`body_kind`); the split itself unique, shared
/// with a clone, already read whole once (which joins it), or a slice of
/// a larger split that is still alive, as `state` selects. The vector
/// keeps whatever must stay alive.
fn split_of(
    head: &[u8],
    body: &[u8],
    steps: usize,
    body_kind: u8,
    state: u8,
) -> (Bytes, Vec<Bytes>) {
    let (mut b, keep) = shared_body(body_kind, body);
    let mut keep: Vec<Bytes> = keep.into_iter().collect();
    let piece = head.len().div_ceil(steps.max(1)).max(1);
    let mut at = head.len();
    loop {
        let from = at.saturating_sub(piece);
        b = b.prepend(&head[from..at]);
        if from == 0 {
            break;
        }
        at = from;
    }
    match state % 4 {
        0 => {}
        1 => keep.push(b.clone()),
        2 => assert_eq!(b.to_vec().len(), head.len() + body.len()),
        _ => {
            let parent = b.prepend(b"<");
            b = parent.slice(1..);
            keep.push(parent);
        }
    }
    (b, keep)
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

    fn no_operation_can_tell_a_handle_held_value_from_a_buffer(
        content in vec_of(arb::<u8>(), 0..65),
        pad in 0usize..24,
        ops in vec_of((0u8..5, vec_of(arb::<u8>(), 0..40), arb::<usize>(), arb::<usize>()), 0..10),
        probe in vec_of(arb::<u8>(), 0..32),
    ) {
        // The same operations on every representation and on a plain
        // vector: lengths wander across what a handle holds in both
        // directions — a header that no longer fits spills, a buffer
        // sliced short and framed again moves in.
        let mut model = content.clone();
        let mut held = every_way_to_hold(&content, pad);
        let probe = Bytes::from(probe);
        for (op, header, a, b) in ops {
            let (lo, hi) = (a % (model.len() + 1), b % (model.len() + 1));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            match op {
                0 | 1 => model.splice(0..0, header.iter().copied()).for_each(drop),
                2 => drop(model.drain(..lo)),
                3 => model = model[lo..hi].to_vec(),
                _ => {}
            }
            for (value, keep) in &mut held {
                let before = (value.clone(), observed(value));
                let taken = std::mem::take(value);
                *value = match op {
                    0 | 1 => taken.prepend(&header),
                    2 => {
                        let mut taken = taken;
                        taken.advance(lo);
                        taken
                    }
                    3 => taken.slice(lo..hi),
                    // Through the builder and back.
                    _ => {
                        let mut m = BytesMut::with_capacity(taken.len());
                        m.put_slice(&taken);
                        *keep = None;
                        m.freeze()
                    }
                };
                assert_eq!(observed(&before.0), before.1, "a clone taken before changed");
            }
            let first = observed(&held[0].0);
            assert_eq!(first.0, model);
            assert_eq!((first.1, first.2), (model.len(), model.is_empty()));
            assert_eq!(first.5, model);
            for (value, _) in &held {
                assert_eq!(observed(value), first);
                assert_eq!(*value, held[0].0);
                assert_eq!(value.cmp(&held[0].0), std::cmp::Ordering::Equal);
                assert_eq!(value.cmp(&probe), model.as_slice().cmp(&probe[..]));
                assert_eq!(probe.cmp(value), probe[..].cmp(model.as_slice()));
                assert_eq!(*value == probe, model == probe[..]);
            }
        }
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

    fn a_split_frame_is_its_flat_frame_to_every_operation(
        head in vec_of(arb::<u8>(), 1..HEADROOM + 16),
        body in vec_of(arb::<u8>(), HEADROOM + 17..300),
        ways in (1usize..4, arb::<u8>(), arb::<u8>()),
        ops in vec_of((0u8..4, vec_of(arb::<u8>(), 0..40), arb::<usize>(), arb::<usize>()), 0..8),
        probe in vec_of(arb::<u8>(), 0..300),
    ) {
        // Longer than the headers a split holds, so every push onto the
        // shared body splits; the ops then pop and push across the edge
        // between headers and body in both directions.
        let (steps, body_kind, state) = ways;
        let mut model: Vec<u8> = head.iter().chain(&body).copied().collect();
        let (mut split, _keep) = split_of(&head, &body, steps, body_kind, state);
        assert!(!split.parts()[1].is_empty(), "headers beside the body");
        let mut flat = Bytes::from(model.clone());
        let probe = Bytes::from(probe);
        for (op, header, a, b) in ops {
            let (lo, hi) = (a % (model.len() + 1), b % (model.len() + 1));
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let earlier = [(split.clone(), observed(&split)), (flat.clone(), observed(&flat))];
            (split, flat) = match op {
                0 | 1 => {
                    model.splice(0..0, header.iter().copied()).for_each(drop);
                    (split.prepend(&header), flat.prepend(&header))
                }
                2 => {
                    model.drain(..lo);
                    split.advance(lo);
                    flat.advance(lo);
                    (split, flat)
                }
                _ => {
                    model = model[lo..hi].to_vec();
                    (split.slice(lo..hi), flat.slice(lo..hi))
                }
            };
            for (value, seen) in &earlier {
                assert_eq!(observed(value), *seen, "a handle taken before changed");
            }
            assert_eq!(split.parts().concat(), model);
            assert_eq!(observed(&split), observed(&flat));
            assert_eq!(split.to_vec(), model);
            assert_eq!((&split == &flat, &flat == &split), (true, true));
            assert!(split == model[..] && split == model);
            assert_eq!(split.cmp(&flat), std::cmp::Ordering::Equal);
            assert_eq!(split.cmp(&probe), model.as_slice().cmp(&probe[..]));
            assert_eq!(probe.cmp(&split), probe[..].cmp(model.as_slice()));
            assert_eq!(split == probe, model == probe[..]);
        }
    }
}
