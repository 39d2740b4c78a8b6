//! The point of headroom, counted: pushing headers onto a uniquely owned
//! frame and popping them again allocates nothing the size of the
//! payload; pushing onto a shared frame allocates exactly once, for the
//! headers beside the untouched payload (a split frame); and a
//! relay — take four headers off a unique frame, push four back — never
//! calls the allocator at all. And of small frames: a header on nothing
//! (an acknowledgement) lives in its handle from the push to the last pop
//! without a call, and a frame that outgrows the handle costs exactly the
//! one buffer it would have cost anyway.
//!
//! One `#[test]` only — the counter is process-wide, and a second test
//! running on another thread would be counted too.

use ps_bytes::{Bytes, HEADROOM};
use ps_wire::{pop_header, push_header, take_header, Encoder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const PAYLOAD: usize = 1400;

/// Allocator calls asking for at least half a payload.
static PAYLOAD_SIZED: AtomicUsize = AtomicUsize::new(0);
/// Allocator calls of any size.
static CALLS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers to `System` unchanged; only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        if layout.size() >= PAYLOAD / 2 {
            PAYLOAD_SIZED.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        if new_size >= PAYLOAD / 2 {
            PAYLOAD_SIZED.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn push4(frame: Bytes) -> Bytes {
    let frame = push_header(&0xAAu8, frame);
    let frame = push_header(&(7u16, 1u64 << 40), frame);
    let frame = push_header(&String::from("layer three"), frame);
    push_header(&u64::MAX, frame)
}

fn pop4(frame: &Bytes) -> Bytes {
    let (_, rest) = pop_header::<u64>(frame).unwrap();
    let (_, rest) = pop_header::<String>(&rest).unwrap();
    let (_, rest) = pop_header::<(u16, u64)>(&rest).unwrap();
    let (tag, rest) = pop_header::<u8>(&rest).unwrap();
    assert_eq!(tag, 0xAA);
    rest
}

/// What a relaying layer does, four layers deep: every header taken off,
/// then four put back. The payload is never dropped, cloned or sliced on
/// the way — a taken payload is the frame's own handle.
fn relay4(frame: Bytes) -> Bytes {
    let (_, rest) = take_header::<u64>(frame).unwrap();
    let (_, rest) = take_header::<(u16, u64)>(rest).unwrap();
    let (_, rest) = take_header::<u32>(rest).unwrap();
    let (tag, rest) = take_header::<u8>(rest).unwrap();
    assert_eq!(tag, 0xAA);
    let frame = push_header(&0xBBu8, rest);
    let frame = push_header(&9u32, frame);
    let frame = push_header(&(8u16, 2u64 << 40), frame);
    push_header(&(u64::MAX - 1), frame)
}

#[test]
fn four_headers_cost_no_payload_sized_allocation_when_unique_and_one_when_shared() {
    let body = vec![0x5Au8; PAYLOAD];
    let fresh = || {
        let mut enc = Encoder::with_capacity(PAYLOAD);
        enc.put_raw(&body);
        enc.finish()
    };

    let frame = fresh();
    let before = (PAYLOAD_SIZED.load(Relaxed), CALLS.load(Relaxed));
    let framed = push4(frame);
    let popped = pop4(&framed);
    assert_eq!(
        PAYLOAD_SIZED.load(Relaxed) - before.0,
        0,
        "unique frame: headers go in the reserve"
    );
    assert_eq!(popped, body);
    // The string header's own allocations, encoding and decoding it.
    let unique_calls = CALLS.load(Relaxed) - before.1;

    let frame = fresh();
    let retained = frame.clone();
    let before = (PAYLOAD_SIZED.load(Relaxed), CALLS.load(Relaxed));
    let framed = push4(frame);
    let popped = pop4(&framed);
    let after = (PAYLOAD_SIZED.load(Relaxed), CALLS.load(Relaxed));
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (0, unique_calls + 1),
        "shared frame: the first push splits, the rest land in the split's reserve"
    );
    assert_eq!(popped, body);
    assert!(std::ptr::eq(popped.as_ptr(), retained.as_ptr()), "the payload never moved");
    assert_eq!(retained, body);

    let frame = push_header(&0xAAu8, fresh());
    let frame = push_header(&7u32, frame);
    let frame = push_header(&(7u16, 1u64 << 40), frame);
    let frame = push_header(&u64::MAX, frame);
    let at = frame[frame.len() - PAYLOAD..].as_ptr();
    let before = CALLS.load(Relaxed);
    let relayed = relay4(frame);
    assert_eq!(CALLS.load(Relaxed) - before, 0, "a relay of a unique frame never allocates");
    assert!(std::ptr::eq(relayed[relayed.len() - PAYLOAD..].as_ptr(), at), "nor moves the payload");
    assert_eq!(relayed[relayed.len() - PAYLOAD..], body[..]);

    // An acknowledgement's life: a tag and a sequence number pushed on
    // nothing, a channel tag pushed on that, one copy per group member,
    // and at each of them the two headers taken off again.
    let before = CALLS.load(Relaxed);
    let ack = push_header(&(1u8, 1u64 << 20), Bytes::new());
    let tagged = push_header(&2u8, ack);
    let copies: [Bytes; 8] = std::array::from_fn(|_| tagged.clone());
    for copy in copies {
        let (channel, rest) = take_header::<u8>(copy).unwrap();
        let ((kind, seq), rest) = take_header::<(u8, u64)>(rest).unwrap();
        assert_eq!((channel, kind, seq, rest.len()), (2, 1, 1 << 20, 0));
    }
    let mut enc = Encoder::new();
    enc.put_varint(300);
    let encoded = enc.finish();
    assert_eq!(encoded, [0xAC, 0x02]);
    assert_eq!(CALLS.load(Relaxed) - before, 0, "a small frame never touches the allocator");

    // Headers until the frame no longer fits in its handle: one call, for
    // a buffer with a full reserve, into which every later header goes.
    let mut frame = tagged.clone();
    let before = CALLS.load(Relaxed);
    while CALLS.load(Relaxed) == before {
        frame = push_header(&u64::MAX, frame);
    }
    let len = frame.len();
    for _ in 0..HEADROOM / 8 {
        frame = push_header(&u64::MAX, frame);
    }
    assert_eq!(frame.len(), len + HEADROOM);
    assert_eq!(
        CALLS.load(Relaxed) - before,
        1,
        "outgrowing the handle: one buffer, HEADROOM in front"
    );
    frame = push_header(&0u8, frame);
    assert_eq!(CALLS.load(Relaxed) - before, 2, "and that reserve was exactly HEADROOM");
    assert_eq!((frame[0], frame[1], &frame[frame.len() - tagged.len()..]), (0, 0xFF, &tagged[..]));

    // An encoding that outgrows the encoder's stack buffer (a ring token
    // carrying a vector of send counts): the buffer it spills into is the
    // one `finish` hands over, reserve and all.
    let before = CALLS.load(Relaxed);
    let mut enc = Encoder::new();
    (0..100u64).for_each(|v| enc.put_varint(v));
    let spilled = push_header(&u64::MAX, enc.finish());
    assert_eq!(spilled.len(), 108);
    assert_eq!(CALLS.load(Relaxed) - before, 1, "a spilled encoding is one buffer");
}
