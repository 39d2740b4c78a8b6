use crate::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::mem;

/// How far past the last popped instant a push must land to go to the far
/// heap. Everything the shipped stacks keep in flight is nearer: frame
/// copies (well under a millisecond ahead), token holds, CPU wakeups,
/// reliable-layer timers, the 100 ms observe interval. Deadlines and
/// watchdogs are farther: `phase_timeout` (30 s), `retransmit_base` (2 s),
/// `token_regen` (5 s).
const FAR: SimTime = SimTime::from_secs(1);

/// `(time, seq)` of an empty part: later than any entry, since `seq` never
/// reaches `u64::MAX`.
const EMPTY: (SimTime, u64) = (SimTime::MAX, u64::MAX);

/// End of the slab's free list.
const NIL: u32 = u32::MAX;

/// Stable time-ordered event queue.
///
/// Events popped in nondecreasing time order; events scheduled for the same
/// instant are popped in insertion order (FIFO), which keeps simulations
/// deterministic without relying on heap tie-breaking accidents.
///
/// Three parts share one sequence counter, and each push goes to one of
/// them for good:
///
/// * the *lane* takes every push made before the first pop — a driver's
///   whole pre-scheduled workload, scheduled faults, `on_start` timers. It
///   is a plain `Vec` that the first pop sorts once and later pops consume
///   from the tail; it hands its capacity back as it drains.
/// * the *near heap* takes a later push due less than one second (`FAR`)
///   past the last popped instant: the frames and timers actually in
///   flight. It orders 24-byte `(time, seq, slot)` keys; the event itself
///   waits in a slab slot, moved in once and out once, and freed slots are
///   reused.
/// * the *far heap* takes a later push due `FAR` or more ahead: deadlines
///   and watchdogs, which are mostly fenced off before they fire (a switch
///   storm leaves thousands pending), so they never deepen the near heap.
///
/// `pop` takes the smallest `(time, seq)` among the three parts' minima.
/// `seq` is unique, so the pop order is exactly a single heap's, ties and
/// pushes into the past included.
///
/// # Examples
///
/// ```
/// use ps_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(20), "late");
/// q.push(SimTime::from_micros(10), "early");
/// q.push(SimTime::from_micros(10), "early-second");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Pushes made before the first pop. Unordered until that pop sorts it
    /// latest-first; from then on only ever popped from the tail.
    lane: Vec<Entry<E>>,
    /// Earliest time in `lane` while it is still unsorted (`peek_time`
    /// takes `&self`, so it cannot sort).
    lane_min: SimTime,
    /// Set by the first pop: the lane is sorted and takes no more pushes.
    popped: bool,
    /// Time of the last pop; a push is far relative to it.
    last: SimTime,
    /// `(time, seq, slot)` of each near push made after the first pop.
    near: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// The near events, each in the slot its key names.
    slab: Vec<Slot<E>>,
    /// First free slot of `slab`, or `NIL`.
    free: u32,
    /// Far pushes made after the first pop.
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time (then lowest
        // sequence number) is the greatest entry. The lane sorts ascending
        // by the same order, which puts its earliest entry at the tail.
        other.key().cmp(&self.key())
    }
}

/// One slab slot: a waiting near event, or a link in the free list.
#[derive(Debug)]
enum Slot<E> {
    Full(E),
    Free(u32),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            lane: Vec::new(),
            lane_min: SimTime::MAX,
            popped: false,
            last: SimTime::ZERO,
            near: BinaryHeap::new(),
            slab: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.popped {
            self.lane_min = self.lane_min.min(at);
            self.lane.push(Entry { at, seq, event });
        } else if at.saturating_sub(self.last) >= FAR {
            self.far.push(Entry { at, seq, event });
        } else {
            let slot = if self.free == NIL {
                self.slab.push(Slot::Full(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 near events")
            } else {
                let slot = self.free;
                match mem::replace(&mut self.slab[slot as usize], Slot::Full(event)) {
                    Slot::Free(next) => self.free = next,
                    Slot::Full(_) => unreachable!("the free list names only free slots"),
                }
                slot
            };
            self.near.push(Reverse((at, seq, slot)));
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if !self.popped {
            self.popped = true;
            // `(time, seq)` keys are unique, so unstable is exact.
            self.lane.sort_unstable();
        }
        let lane = self.lane.last().map_or(EMPTY, Entry::key);
        let near = self.near.peek().map_or(EMPTY, |&Reverse((at, seq, _))| (at, seq));
        let far = self.far.peek().map_or(EMPTY, Entry::key);
        let (at, event) = if near < lane && near < far {
            let Reverse((at, _, slot)) = self.near.pop()?;
            match mem::replace(&mut self.slab[slot as usize], Slot::Free(self.free)) {
                Slot::Full(event) => {
                    self.free = slot;
                    (at, event)
                }
                Slot::Free(_) => unreachable!("a key names a full slot"),
            }
        } else if lane < far {
            let e = self.lane.pop()?;
            // Give the schedule's memory back while the run's logs grow:
            // halve at quarter occupancy, free outright when drained.
            if self.lane.len() <= self.lane.capacity() / 4 {
                self.lane.shrink_to(self.lane.len() * 2);
            }
            (e.at, e.event)
        } else {
            let e = self.far.pop()?;
            (e.at, e.event)
        };
        self.last = at;
        Some((at, event))
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.popped {
            return (!self.lane.is_empty()).then_some(self.lane_min);
        }
        // Plain compares: `run_until` peeks before every pop.
        let lane = self.lane.last().map_or(SimTime::MAX, |e| e.at);
        let near = self.near.peek().map_or(SimTime::MAX, |Reverse(k)| k.0);
        let far = self.far.peek().map_or(SimTime::MAX, |e| e.at);
        (!self.is_empty()).then_some(lane.min(near).min(far))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.near.len() + self.far.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.near.is_empty() && self.far.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for t in [5u64, 1, 9, 3, 7] {
            q.push(SimTime::from_micros(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(4);
        for i in 0..100 {
            q.push(t, i);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.push(SimTime::from_micros(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_micros(1), "c");
        q.push(SimTime::from_micros(10), "d"); // same time as "a", pushed later
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(8), ());
        q.push(SimTime::from_micros(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
    }

    #[test]
    fn a_drained_lane_holds_no_capacity() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_micros(i), i);
        }
        let full = q.lane.capacity();
        for i in 0..1000u64 {
            assert_eq!(q.pop(), Some((SimTime::from_micros(i), i)));
            if i == 800 {
                assert!(q.lane.capacity() <= full / 2, "capacity returns while draining");
            }
        }
        assert_eq!(q.lane.capacity(), 0);
        // Later pushes go to the near heap; the lane stays gone.
        q.push(SimTime::from_micros(1), 1);
        assert_eq!((q.lane.capacity(), q.near.len(), q.len()), (0, 1, 1));
    }

    /// The `switch_storm` shape: every switch attempt arms a 30 s abort
    /// deadline at each of 8 members, and almost none fire.
    #[test]
    fn deadlines_never_deepen_the_near_heap() {
        const DEADLINES: u64 = 4_800;
        const IN_FLIGHT: u64 = 8;
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, u64::MAX);
        assert_eq!(q.pop(), Some((SimTime::ZERO, u64::MAX)));
        // Eight members share each deadline instant.
        for i in 0..DEADLINES {
            q.push(SimTime::from_secs(30) + SimTime::from_millis(i / 8), i);
        }
        let near = |i: u64| DEADLINES + i;
        for i in 0..IN_FLIGHT {
            q.push(SimTime::from_micros(i), near(i));
        }
        for i in IN_FLIGHT..IN_FLIGHT + 10_000 {
            let (at, e) = q.pop().expect("near events are pending");
            assert!(e >= DEADLINES, "a deadline popped at {at}");
            q.push(at + SimTime::from_micros(1 + i * 37 % 1_000), near(i));
            assert!(q.near.len() as u64 <= IN_FLIGHT);
            assert_eq!(q.slab.len() as u64, IN_FLIGHT, "freed slots are reused");
            assert_eq!(q.far.len() as u64, DEADLINES);
        }
        for _ in 0..IN_FLIGHT {
            assert!(q.pop().expect("near events are pending").1 >= DEADLINES);
        }
        let deadlines: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let want: Vec<_> = (0..DEADLINES)
            .map(|i| (SimTime::from_secs(30) + SimTime::from_millis(i / 8), i))
            .collect();
        assert_eq!(deadlines, want);
    }
}
