//! Property tests for [`EventQueue`] against a trivially correct model: a
//! `Vec` of `(time, push index)` in push order, stable-sorted by time on
//! every pop. Identical operation sequences must produce identical pops
//! (time *and* payload, so same-instant FIFO ties are checked exactly),
//! identical peeks, and identical lengths — whichever of the queue's three
//! parts (the pre-scheduled lane, the near heap, the far heap) an entry is
//! in.

use ps_check::prelude::*;
use ps_simnet::{EventQueue, SimTime};

/// Pending `(time, push index)` pairs in push order.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, usize)>,
}

impl Model {
    fn pop(&mut self) -> Option<(SimTime, usize)> {
        // Stable: same-instant entries keep their push order.
        self.pending.sort_by_key(|&(t, _)| t);
        (!self.pending.is_empty()).then(|| self.pending.remove(0))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.iter().map(|&(t, _)| t).min()
    }
}

/// Queue and model driven in lockstep; every step compares everything
/// observable.
#[derive(Default)]
struct Pair {
    queue: EventQueue<usize>,
    model: Model,
    pushed: usize,
    last_popped: SimTime,
}

impl Pair {
    fn push(&mut self, at: SimTime) {
        self.queue.push(at, self.pushed);
        self.model.pending.push((at, self.pushed));
        self.pushed += 1;
        self.check();
    }

    fn pop(&mut self) -> bool {
        let got = self.queue.pop();
        assert_eq!(got, self.model.pop());
        self.check();
        if let Some((at, _)) = got {
            self.last_popped = at;
        }
        got.is_some()
    }

    fn check(&self) {
        assert_eq!(self.queue.peek_time(), self.model.peek_time());
        assert_eq!(self.queue.len(), self.model.pending.len());
        assert_eq!(self.queue.is_empty(), self.model.pending.is_empty());
    }

    /// Maps a raw 64-bit draw onto a timestamp: heavy same-instant ties
    /// (which straddle lane and near heap once a pop has happened), every
    /// magnitude, the top of the range, instants at or before the last
    /// popped time, either side of the far boundary, and a few far instants
    /// so tied that one of them straddles the lane, the near heap and the
    /// far heap.
    fn shape_time(&self, raw: u64) -> SimTime {
        // The queue's private `FAR`: a push this far past the last popped
        // instant goes to the far heap.
        const FAR_US: u64 = 1_000_000;
        let last = self.last_popped.as_micros();
        SimTime::from_micros(match raw >> 60 {
            0 => raw & 0x7,
            1 => raw & 0xFFF,
            2 => raw & 0xFF_FFFF,
            3 => raw & (u64::MAX >> 1),
            4 => u64::MAX - (raw & 0x3),
            5 => last.saturating_sub(raw & 0xFF),
            6 => last,
            7 => last.saturating_add(FAR_US - 1),
            8 => last.saturating_add(FAR_US),
            9 => last.saturating_add(FAR_US + (raw & 0x3F)),
            10 | 11 => FAR_US * (1 + (raw & 0x3)),
            _ => last.saturating_add(raw & 0x3F),
        })
    }

    fn drain(&mut self) {
        while self.pop() {}
        assert!(self.queue.pop().is_none());
    }
}

props! {
    #![config(cases = 64)]

    /// Everything pushed before the first pop (the lane alone), then a
    /// full drain — `peek_time` and `len` are checked before that pop too.
    fn bulk_push_then_drain(raws in vec_of(arb::<u64>(), 0..300)) {
        let mut p = Pair::default();
        for raw in raws {
            p.push(p.shape_time(raw));
        }
        p.drain();
    }

    /// All-ties workloads pop in exact insertion order.
    fn all_ties_are_fifo(raws in vec_of(arb::<u64>(), 0..100)) {
        let mut p = Pair::default();
        for (i, raw) in raws.into_iter().enumerate() {
            if i == 30 {
                p.pop(); // the rest of the ties go to the near heap
            }
            p.push(SimTime::from_micros(raw & 1));
        }
        p.drain();
    }

    /// A pre-scheduled batch, then pushes and pops interleaved at random:
    /// entries from all three parts are pending together, pushed in the
    /// past, at the last popped instant, either side of the far boundary
    /// and at `SimTime::MAX`.
    fn prefill_then_interleave(
        prefill in vec_of(arb::<u64>(), 0..100),
        ops in vec_of(arb::<u64>(), 0..300),
    ) {
        let mut p = Pair::default();
        for raw in prefill {
            p.push(p.shape_time(raw));
        }
        for raw in ops {
            if raw & 0b11 == 0 {
                p.pop();
            } else {
                p.push(p.shape_time(raw.rotate_left(7)));
            }
        }
        p.drain();
    }
}
